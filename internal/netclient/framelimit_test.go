package netclient_test

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"

	"tensordimm/internal/netclient"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// startLimited serves one connection by hand: the handshake announces
// echoBackend's geometry with a frame limit of limit bytes, PING and
// UPDATE frames are answered at once — except the first PING, which
// signals held and is answered only after release closes — and a frame
// over the limit drops the connection, as netserve's reader does.
func startLimited(t *testing.T, limit int) (addr string, held chan struct{}, release func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	held = make(chan struct{})
	rel := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(rel) }) }
	t.Cleanup(func() { l.Close() })
	t.Cleanup(release)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, _, err := wire.ReadClientHello(br, nil); err != nil {
			return
		}
		var mu sync.Mutex
		send := func(frame []byte) {
			mu.Lock()
			defer mu.Unlock()
			nc.Write(frame)
		}
		send(wire.AppendServerHello(nil, wire.Hello{Geom: (&echoBackend{}).Geometry(), MaxFrameBytes: limit}))
		holding := true
		answer := func(op wire.Op, id uint64) {
			switch {
			case op == wire.OpPing && holding:
				holding = false
				close(held)
				go func() {
					<-rel
					send(wire.AppendFrame(nil, wire.OpPong, id, nil))
				}()
			case op == wire.OpPing:
				send(wire.AppendFrame(nil, wire.OpPong, id, nil))
			case op == wire.OpUpdate:
				send(wire.AppendFrame(nil, wire.OpUpdateResp, id, nil))
			}
		}
		var buf []byte
		for {
			op, id, payload, nbuf, err := wire.ReadFrame(br, buf, limit)
			if err != nil {
				return
			}
			buf = nbuf
			if op != wire.OpBatch {
				answer(op, id)
				continue
			}
			it, err := wire.DecodeBatch(payload)
			if err != nil {
				return
			}
			for {
				sop, sid, _, more := it.Next()
				if !more {
					break
				}
				answer(sop, sid)
			}
		}
	}()
	return l.Addr().String(), held, release
}

// TestUpdateOverPeerFrameLimitRefused pins that the client sizes an
// update batch against the smaller of its own frame limit and the one the
// server announced: a batch over the server's limit fails on its own
// instead of reaching the server's reader, which would drop the shared
// connection and fail a call pipelined on it.
func TestUpdateOverPeerFrameLimitRefused(t *testing.T) {
	const limit = 1024
	addr, held, release := startLimited(t, limit)
	cl, err := netclient.Dial(addr, netclient.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := cl.Geometry()

	pinged := make(chan error, 1)
	go func() { pinged <- cl.Ping() }()
	<-held // the ping is pipelined on the connection, unanswered

	// Four updates of MaxBatch x Reduction rows encode to well over limit.
	rows := make([]int, g.MaxBatch*g.Reduction)
	ups := make([]runtime.TableUpdate, 4)
	for i := range ups {
		ups[i] = runtime.TableUpdate{Table: 0, Rows: rows, Grads: tensor.New(len(rows), g.Dim)}
	}
	if err := cl.Update(ups); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Errorf("update over the server's frame limit: err = %v, want a frame-limit refusal", err)
	}
	release()
	if err := <-pinged; err != nil {
		t.Fatalf("pipelined ping failed: %v", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after the refused update: %v", err)
	}
}
