package netserve_test

import (
	"net"
	"testing"
	"time"

	"tensordimm/internal/netserve"
	"tensordimm/internal/wire"
)

// FuzzWireFrames feeds arbitrary bytes to a live server after a valid
// handshake — the frames a confused or malicious client could produce.
// The invariants: the server never panics (a goroutine panic would crash
// the fuzz process), and every frame it answers is a well-formed response
// op, with failures expressed as decodable typed ERROR frames. Malformed
// streams may also simply close the connection — that is the documented
// protocol-violation path, not a finding.
func FuzzWireFrames(f *testing.F) {
	b := newStub()
	srv, err := netserve.New(b, netserve.Config{Role: wire.RoleReplica})
	if err != nil {
		f.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go srv.Serve(l)
	f.Cleanup(func() { srv.Close() })
	addr := l.Addr().String()
	g := srv.Geometry()

	// Seeds: one valid frame of every request op, plus classic corruptions.
	rows := make([][]int, g.Tables)
	for t := range rows {
		rows[t] = make([]int, g.Reduction)
	}
	f.Add(wire.AppendEmbed(nil, 1, 0, rows, 1, g.Reduction))
	f.Add(wire.AppendUpdate(nil, 2, 0, []wire.Update{{Table: 0, Rows: []int{3}, Grads: make([]float32, g.Dim)}}))
	f.Add(wire.AppendSync(nil, 3, 0, []wire.Update{{Table: 0, Rows: []int{3}, Grads: make([]float32, g.Dim)}}))
	f.Add(wire.AppendFrame(nil, wire.OpPing, 4, nil))
	f.Add(wire.AppendFrame(nil, wire.OpMetrics, 5, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})                        // absurd length prefix
	f.Add(wire.AppendFrame(nil, wire.Op(77), 6, []byte{1}))      // unknown op
	f.Add(wire.AppendEmbed(nil, 7, 0, rows, 1, g.Reduction)[:9]) // truncated mid-frame

	// Coalesced super-frames: valid BATCH of two embeds, plus the BATCH
	// corruptions the codec must reject — truncated interior sub-frame,
	// count word past the payload, nested batch.
	embed := wire.AppendEmbed(nil, 8, 0, rows, 1, g.Reduction)
	goodBatch := wire.AppendBatch(nil, 9, embed, embed)
	f.Add(goodBatch)
	f.Add(goodBatch[:len(goodBatch)-3]) // interior sub-frame cut mid-payload
	overCount := append([]byte(nil), goodBatch...)
	overCount[wire.BatchHeaderBytes-2] = 0xff // count claims far more sub-frames
	overCount[wire.BatchHeaderBytes-1] = 0xff // than the payload holds
	f.Add(overCount)
	f.Add(wire.AppendBatch(nil, 10, wire.AppendBatch(nil, 11, embed))) // nested batch

	f.Fuzz(func(t *testing.T, data []byte) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial failed; server tearing down")
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(wire.AppendClientHello(nil, 0)); err != nil {
			t.Skip("handshake write failed")
		}
		if _, _, err := wire.ReadServerHello(nc, nil); err != nil {
			t.Skip("handshake read failed")
		}
		nc.Write(data)
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.CloseWrite() // EOF after the payload so the server drains replies
		}
		checkResp := func(op wire.Op, payload []byte) {
			switch op {
			case wire.OpEmbedResp, wire.OpUpdateResp, wire.OpSyncResp, wire.OpPong, wire.OpMetricsResp:
				// well-formed success replies
			case wire.OpError:
				if _, _, derr := wire.DecodeError(payload); derr != nil {
					t.Fatalf("undecodable ERROR frame for input %x: %v", data, derr)
				}
			default:
				t.Fatalf("server answered op %d to input %x", op, data)
			}
		}
		var buf []byte
		for {
			var op wire.Op
			var payload []byte
			op, _, payload, buf, err = wire.ReadFrame(nc, buf, 0)
			if err != nil {
				return // EOF or connection closed: the violation path, fine
			}
			if op != wire.OpBatch {
				checkResp(op, payload)
				continue
			}
			// Coalesced responses must themselves decode cleanly, and never
			// nest: every sub-frame is a plain response.
			it, derr := wire.DecodeBatch(payload)
			if derr != nil {
				t.Fatalf("undecodable BATCH response for input %x: %v", data, derr)
			}
			for {
				subOp, _, subPayload, ok := it.Next()
				if !ok {
					break
				}
				checkResp(subOp, subPayload)
			}
			if derr := it.Err(); derr != nil {
				t.Fatalf("corrupt BATCH response for input %x: %v", data, derr)
			}
		}
	})
}
