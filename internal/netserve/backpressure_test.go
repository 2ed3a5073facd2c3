package netserve_test

import (
	"testing"
	"time"

	"tensordimm/internal/netserve"
	"tensordimm/internal/wire"
)

// TestBackPressureBoundsUnreadResponses pins the per-connection bound on
// what a client that sends but never reads can make the server buffer.
// Over net.Pipe a server write completes only when the client reads, so
// with the client not reading the writer is parked on its first flush
// while the reader answers pings into the Writer until the connection's
// response credits (MaxInflight+16) are gone; then the reader stops
// reading and the client's next Write times out. Reading afterwards, every
// accepted ping must be answered.
func TestBackPressureBoundsUnreadResponses(t *testing.T) {
	const maxInflight, flood = 1, 10_000
	srv, l := startPipeServer(t, newStub(), netserve.Config{MaxInflight: maxInflight})
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
	if got := srv.Metrics().Pings; got != uint64(accepted) && got != uint64(accepted-1) {
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
}
