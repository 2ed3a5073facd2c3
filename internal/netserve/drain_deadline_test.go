package netserve_test

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/netserve"
	"tensordimm/internal/telemetry"
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

// scanned is one response scanFrames saw: its op, and its code when it is
// an error frame.
type scanned struct {
	op   wire.Op
	code wire.ErrCode
}

// scanFrames reads frames until a read error (deadline, EOF, peer close)
// and returns every response seen by request id, unwrapping coalesced
// BATCH responses.
func scanFrames(r io.Reader) map[uint64]scanned {
	seen := make(map[uint64]scanned)
	match := func(op wire.Op, id uint64, payload []byte) {
		sc := scanned{op: op}
		if op == wire.OpError {
			sc.code, _, _ = wire.DecodeError(payload)
		}
		seen[id] = sc
	}
	var buf []byte
	for {
		op, id, payload, nbuf, err := wire.ReadFrame(r, buf, wire.DefaultMaxFrameBytes)
		if err != nil {
			return seen
		}
		buf = nbuf
		if op != wire.OpBatch {
			match(op, id, payload)
			continue
		}
		it, err := wire.DecodeBatch(payload)
		if err != nil {
			return seen
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
// interleaving of "response owed vs. expired while waiting". With
// MaxInflight 1 a connection holds 17 response credits (and the executor
// pool is a single goroutine). The test wedges one connection
// deterministically over net.Pipe: its writer is pinned mid-Write of a
// pong (one byte read, twelve withheld), an embed A owes its response
// behind it, and one BATCH of pings uses up the credits left, leaving the
// reader waiting for one with an embed of 20ms budget still undispatched
// in that BATCH. On the pool, A is held in a gated stub and finishes only
// once the connection is wedged: it must append its response without
// waiting on the wedged writer, so the sole executor still serves another
// connection. An in-process backend runs A on the reader, which appends
// its response itself, and another connection's reader is served the same
// way. Behind a backend whose reads wait on the network the reader sends A
// and the sole executor holds its await at the gate, so the same edge is
// A's await returning; B, stamped as arrived but never sent, must never
// reach the backend either. The drain must flush the owed response, shed
// the expired request with a typed DEADLINE_EXCEEDED counted in
// Metrics.Expired, and still complete.
func TestDrainRacesExpiringDeadline(t *testing.T) {
	for _, tc := range []struct {
		name string
		// backend returns the backend under test, a hook that returns once
		// A owes its response (nil: A is answered before the next frame is
		// read), one that lets A finish (nil: it already has), and the
		// count of embeds the backend ran.
		backend func(t *testing.T) (b netserve.Backend, enteredA, releaseA func(), embeds func() int64)
	}{
		{"pool", func(*testing.T) (netserve.Backend, func(), func(), func() int64) {
			b := newStub()
			b.entered = make(chan struct{}, 4)
			b.release = make(chan struct{})
			return b, func() { <-b.entered }, func() { close(b.release) }, b.embeds.Load
		}},
		{"wire", func(*testing.T) (netserve.Backend, func(), func(), func() int64) {
			b := newWireStub()
			b.entered = make(chan struct{}, 4)
			b.release = make(chan struct{})
			return b, func() { <-b.entered }, func() { close(b.release) }, func() int64 {
				sent, _ := b.sends()
				return int64(len(sent))
			}
		}},
		{"reader-serve", func(t *testing.T) (netserve.Backend, func(), func(), func() int64) {
			_, ss := serveBackend(t)
			reg := telemetry.NewRegistry()
			ss.Instrument(reg)
			return netserve.ServerBackend(ss), nil, nil, func() int64 {
				v, _ := reg.Snapshot().Counter("tensordimm_serve_requests_total")
				return int64(v)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, enteredA, releaseA, embeds := tc.backend(t)
			reg := telemetry.NewRegistry()
			srv, l := startPipeServer(t, b, netserve.Config{MaxInflight: 1, Registry: reg})
			conn1, h := l.dial(t)
			g := h.Geom

			// Pin conn1's writer mid-frame: send one ping, then consume
			// exactly one byte of the 13-byte pong. The pipe write cannot
			// complete until the remaining twelve are read, so the writer
			// goroutine is provably wedged and returns no credit.
			conn1.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn1.Write(wire.AppendFrame(nil, wire.OpPing, 101, nil)); err != nil {
				t.Fatal(err)
			}
			conn1.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn1.Read(make([]byte, 1)); err != nil {
				t.Fatal(err)
			}

			// A on conn1: it holds a credit until its response is flushed.
			if _, err := conn1.Write(wire.AppendEmbed(nil, 1, 0, reqRows(g, 1, 1), 1, g.Reduction)); err != nil {
				t.Fatal(err)
			}
			if enteredA != nil {
				enteredA()
			}

			// The pinned pong and A hold 2 of the 17 credits; a BATCH of 17
			// more pings and B (an embed with a 20ms budget) gets 15 pings
			// answered before the reader blocks on the 16th, so Pings
			// reaching 16 is the stable, fully-wedged state, with B stamped
			// as arrived.
			subs := make([][]byte, 0, 18)
			for id := uint64(102); id < 119; id++ {
				subs = append(subs, wire.AppendFrame(nil, wire.OpPing, id, nil))
			}
			subs = append(subs, wire.AppendEmbed(nil, 2, 20_000, reqRows(g, 1, 2), 1, g.Reduction))
			if _, err := conn1.Write(wire.AppendBatch(nil, 9, subs...)); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); netCounter(t, reg, "pings") != 16; {
				if time.Now().After(deadline) {
					t.Fatalf("connection never wedged: %d pings answered", netCounter(t, reg, "pings"))
				}
				time.Sleep(time.Millisecond)
			}

			// Release A: it finishes and frees the admission slot (Inflight
			// back to 0 is the observable edge), its response appended
			// behind the pinned write — the "response owed" half. C on
			// conn2 is served while conn1 stays wedged.
			if releaseA != nil {
				releaseA()
			}
			for deadline := time.Now().Add(5 * time.Second); netInflight(t, reg) != 0; {
				if time.Now().After(deadline) {
					t.Fatalf("the blocked embed never finished: %d in flight", netInflight(t, reg))
				}
				time.Sleep(time.Millisecond)
			}
			conn2, _ := l.dial(t)
			conn2.SetDeadline(time.Now().Add(5 * time.Second))
			if op, id, _ := rawCall(t, conn2, wire.AppendEmbed(nil, 3, 0, reqRows(g, 1, 3), 1, g.Reduction)); op != wire.OpEmbedResp || id != 3 {
				t.Fatalf("embed on another connection answered op %d id %d while conn1 was wedged, want EMBED_RESP 3", op, id)
			}

			// Drain while A's response is owed and B waits for a credit; let
			// B's budget lapse before unblocking anything.
			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			time.Sleep(50 * time.Millisecond)

			// Unpin conn1 by reading it: first the withheld twelve pong
			// bytes, then every flushed frame until the server tears the
			// connection down. The owed embed response must be among them,
			// and B — dispatched once the flush returned its credits — is
			// expired: a typed shed, not execution.
			conn1.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadFull(conn1, make([]byte, 12)); err != nil {
				t.Fatal(err)
			}
			seen := scanFrames(conn1)
			if seen[1].op != wire.OpEmbedResp {
				t.Fatal("owed embed response was never flushed across the drain")
			}
			if sc := seen[2]; sc.op != wire.OpError || sc.code != wire.ErrDeadlineExceeded {
				t.Fatalf("waiting request got %+v, want a typed %v shed\nserver: %+v",
					sc, wire.ErrDeadlineExceeded, srv.Metrics())
			}

			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("drain returned %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close wedged draining an expired request")
			}
			if m := srv.Metrics(); m.Expired != 1 {
				t.Fatalf("Metrics.Expired = %d, want 1: %+v", m.Expired, m)
			}
			if n := embeds(); n != 2 {
				t.Fatalf("backend ran %d embeds, want 2 (A and C): the expired request must never reach it", n)
			}
		})
	}
}
