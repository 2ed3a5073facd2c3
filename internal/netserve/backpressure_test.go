package netserve_test

import (
	"testing"
	"time"

	"tensordimm/internal/netserve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// TestBackPressureBoundsUnreadResponses pins the per-connection bound on
// what a client that sends but never reads can make the server buffer.
// Over net.Pipe a server write completes only when the client reads, so
// with the client not reading the writer is parked on its first flush
// while the reader answers into the Writer until the connection's
// response credits (MaxInflight+16) are gone.
//
// "pings": the reader stops reading and the client's next Write times
// out; reading afterwards, every accepted ping must be answered.
//
// "serve-reads": one BATCH of reads for a serve.Server, wider than the
// credits. The reads the reader started hold server-wide admission slots,
// so it must answer them before it waits for a credit: another
// connection's read is then served, not shed with OVERLOADED. Reading
// afterwards, every read of the BATCH must be answered.
func TestBackPressureBoundsUnreadResponses(t *testing.T) {
	t.Run("pings", func(t *testing.T) {
		const maxInflight, flood = 1, 10_000
		reg := telemetry.NewRegistry()
		_, l := startPipeServer(t, newStub(), netserve.Config{MaxInflight: maxInflight, Registry: reg})
		nc, _ := l.dial(t)

		accepted := 0
		var frame []byte
		for accepted < flood {
			frame = wire.AppendFrame(frame[:0], wire.OpPing, uint64(accepted+1), nil)
			nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
			if _, err := nc.Write(frame); err != nil {
				break
			}
			accepted++
		}
		// The credits, plus the ping the reader holds while it waits for one.
		if bound := maxInflight + 16 + 1; accepted > bound {
			t.Fatalf("server accepted %d pings from a client that never reads, want at most %d (of %d sent)", accepted, bound, flood)
		}
		if got := netCounter(t, reg, "pings"); got != uint64(accepted) && got != uint64(accepted-1) {
			t.Fatalf("server answered %d pings into the Writer, %d accepted", got, accepted)
		}

		t.Logf("%d pings accepted before the client's write timed out", accepted)

		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		answered := make(map[uint64]bool, accepted)
		answer := func(op wire.Op, id uint64) {
			if op != wire.OpPong || id == 0 || id > uint64(accepted) || answered[id] {
				t.Fatalf("response op %d id %d: want one PONG per accepted ping 1..%d", op, id, accepted)
			}
			answered[id] = true
		}
		var buf []byte
		for len(answered) < accepted {
			op, id, payload, nbuf, err := wire.ReadFrame(nc, buf, 0)
			if err != nil {
				t.Fatalf("%d of %d accepted pings answered: %v", len(answered), accepted, err)
			}
			buf = nbuf
			if op != wire.OpBatch {
				answer(op, id)
				continue
			}
			it, err := wire.DecodeBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			for {
				sop, sid, _, ok := it.Next()
				if !ok {
					break
				}
				answer(sop, sid)
			}
		}
	})
	t.Run("serve-reads", func(t *testing.T) {
		const maxInflight = 4
		const credits, k = maxInflight + 16, 2 * (maxInflight + 16)
		_, ss := serveBackend(t)
		reg := telemetry.NewRegistry()
		_, l := startPipeServer(t, netserve.ServerBackend(ss), netserve.Config{MaxInflight: maxInflight, Registry: reg})
		stuck, h := l.dial(t)
		g := h.Geom
		subs := make([][]byte, k)
		for i := range subs {
			subs[i] = wire.AppendEmbed(nil, uint64(i+1), 0, reqRows(g, 1, i), 1, g.Reduction)
		}
		stuck.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := stuck.Write(wire.AppendBatch(nil, 0, subs...)); err != nil {
			t.Fatal(err)
		}
		// The reader answers reads into the Writer until the credits are
		// gone; then it waits, and no read of this connection may still hold
		// an admission slot.
		deadline := time.Now().Add(5 * time.Second)
		for {
			req, inflight := netCounter(t, reg, "requests"), netInflight(t, reg)
			if req == credits && inflight == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("reader waiting for a credit holds %d admission slots with %d of %d credited reads answered", inflight, req, credits)
			}
			time.Sleep(time.Millisecond)
		}

		other, _ := l.dial(t)
		other.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := other.Write(wire.AppendEmbed(nil, 1, 0, reqRows(g, 1, 0), 1, g.Reduction)); err != nil {
			t.Fatal(err)
		}
		op, _, payload, _, err := wire.ReadFrame(other, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if op != wire.OpEmbedResp {
			code, msg, _ := wire.DecodeError(payload)
			t.Fatalf("another connection's read answered op %d (%d %q) while this one does not read, want EMBED_RESP", op, code, msg)
		}

		stuck.SetReadDeadline(time.Now().Add(5 * time.Second))
		for id, payload := range readEmbedResponses(t, stuck, k) {
			if err := wire.DecodeEmbedResp(payload, make([]float32, g.Width())); err != nil {
				t.Fatalf("read %d: %v", id, err)
			}
		}
	})
}
