package netserve_test

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/netserve"
	"tensordimm/internal/wire"
)

// pipeAddr is the dummy address of an in-memory pipe listener.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeListener feeds net.Pipe server halves to Serve. Pipes are fully
// synchronous — a Write blocks until the peer reads every byte — so a
// test controls the server's writer goroutine byte by byte, with no
// kernel socket buffering to make backpressure timing-dependent.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, 4), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// startPipeServer serves b over an in-memory pipe listener, with a
// cleanup-registered close like startServer's.
func startPipeServer(t *testing.T, b netserve.Backend, cfg netserve.Config) (*netserve.Server, *pipeListener) {
	t.Helper()
	srv, err := netserve.New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Close, want nil", err)
		}
	})
	return srv, l
}

// dial opens one pipe connection and completes the wire handshake,
// returning the client half.
func (l *pipeListener) dial(t *testing.T) (net.Conn, wire.Hello) {
	t.Helper()
	cli, srv := net.Pipe()
	l.conns <- srv
	t.Cleanup(func() { cli.Close() })
	cli.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := cli.Write(wire.AppendClientHello(nil, wire.DefaultMaxFrameBytes)); err != nil {
		t.Fatal(err)
	}
	h, _, err := wire.ReadServerHello(cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	cli.SetDeadline(time.Time{})
	return cli, h
}

// scanFrames reads frames until a read error (deadline, EOF, peer close),
// reporting whether one with the given op and id appeared — unwrapping
// coalesced BATCH responses.
func scanFrames(r io.Reader, wantOp wire.Op, wantID uint64) (found bool, code wire.ErrCode) {
	var buf []byte
	match := func(op wire.Op, id uint64, payload []byte) {
		if op == wantOp && id == wantID {
			found = true
			if op == wire.OpError {
				code, _, _ = wire.DecodeError(payload)
			}
		}
	}
	for {
		op, id, payload, nbuf, err := wire.ReadFrame(r, buf, wire.DefaultMaxFrameBytes)
		if err != nil {
			return found, code
		}
		buf = nbuf
		if op != wire.OpBatch {
			match(op, id, payload)
			continue
		}
		it, err := wire.DecodeBatch(payload)
		if err != nil {
			return found, code
		}
		for {
			sop, sid, sp, more := it.Next()
			if !more {
				break
			}
			match(sop, sid, sp)
		}
	}
}

// TestDrainRacesExpiringDeadline pins the graceful-drain x deadline
// interleaving of "response owed vs. expired in queue". With MaxInflight
// 1 the executor pool is a single goroutine, and an admitted task can
// only wait in the queue while that executor is blocked handing a
// finished response to a backpressured connection. The test constructs
// that wedge deterministically over net.Pipe: the writer is pinned
// mid-Write of a pong (one byte read, twelve withheld), the out channel
// is filled to capacity behind it, the executor finishes a slow embed
// into the full channel, and a second request is admitted with a 20ms
// budget it can only lose. The drain must flush the owed response, shed
// the expired request with a typed DEADLINE_EXCEEDED counted in
// Metrics.Expired, and still complete.
func TestDrainRacesExpiringDeadline(t *testing.T) {
	b := newStub()
	b.entered = make(chan struct{}, 4)
	b.release = make(chan struct{})
	srv, l := startPipeServer(t, b, netserve.Config{MaxInflight: 1})

	// A on conn1: enters the sole executor and blocks in the backend.
	conn1, h := l.dial(t)
	g := h.Geom
	conn1.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn1.Write(wire.AppendEmbed(nil, 1, 0, reqRows(g, 1, 1), 1, g.Reduction)); err != nil {
		t.Fatal(err)
	}
	<-b.entered

	// Pin conn1's writer mid-frame: send one ping, then consume exactly
	// one byte of the 13-byte pong. The pipe write cannot complete until
	// the remaining twelve are read, so the writer goroutine is provably
	// wedged and can no longer drain the out channel.
	if _, err := conn1.Write(wire.AppendFrame(nil, wire.OpPing, 101, nil)); err != nil {
		t.Fatal(err)
	}
	conn1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn1.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}

	// Fill the out channel (capacity MaxInflight+16 = 17) behind the
	// pinned writer with 17 more pongs; an 18th blocks the read loop in
	// enqueue, so Pings reaching 19 is the stable, fully-wedged state.
	var pings []byte
	for id := uint64(102); id < 120; id++ {
		pings = wire.AppendFrame(pings, wire.OpPing, id, nil)
	}
	if _, err := conn1.Write(pings); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Metrics().Pings != 19; {
		if time.Now().After(deadline) {
			t.Fatalf("connection never wedged: %+v", srv.Metrics())
		}
		time.Sleep(time.Millisecond)
	}

	// Release A: the executor finishes it, frees the admission slot
	// (Inflight back to 0 is the observable edge), and blocks handing the
	// response to the full out channel — the "response owed" half.
	close(b.release)
	for deadline := time.Now().Add(5 * time.Second); srv.Metrics().Inflight != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("executor never finished the blocked embed: %+v", srv.Metrics())
		}
		time.Sleep(time.Millisecond)
	}

	// B on conn2: admitted into the freed slot with a 20ms budget, queued
	// behind the wedged executor — the "expired in queue" half.
	conn2, _ := l.dial(t)
	conn2.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn2.Write(wire.AppendEmbed(nil, 1, 20_000, reqRows(g, 1, 2), 1, g.Reduction)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Metrics().Inflight != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("queued request never admitted: %+v", srv.Metrics())
		}
		time.Sleep(time.Millisecond)
	}

	// Drain while A's response is owed and B is queued; let B's budget
	// lapse before unblocking anything.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(50 * time.Millisecond)

	// Unpin conn1 by reading it: first the withheld twelve pong bytes,
	// then every flushed frame until the server tears the connection
	// down. The owed embed response must be among them.
	conn1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn1, make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	if foundA, _ := scanFrames(conn1, wire.OpEmbedResp, 1); !foundA {
		t.Fatal("owed embed response was never flushed across the drain")
	}

	// With the writer unpinned the executor's handoff completes and the
	// next task it picks up — B — is expired: a typed shed, not execution.
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	foundB, codeB := scanFrames(conn2, wire.OpError, 1)
	if !foundB || codeB != wire.ErrDeadlineExceeded {
		t.Fatalf("queued request got (found=%v, code=%v), want a typed %v shed\nserver: %+v",
			foundB, codeB, wire.ErrDeadlineExceeded, srv.Metrics())
	}

	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged draining an expired queued request")
	}
	if m := srv.Metrics(); m.Expired != 1 {
		t.Fatalf("Metrics.Expired = %d, want 1: %+v", m.Expired, m)
	}
	if b.embeds.Load() != 1 {
		t.Fatalf("backend ran %d embeds, want 1: the expired request must never reach it", b.embeds.Load())
	}
}
