package netclient_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// wideBackend has a different geometry than echoBackend — the "operator
// restarted the server with another model" case.
type wideBackend struct{ echoBackend }

// Geometry implements netserve.Backend.
func (b *wideBackend) Geometry() wire.Geometry {
	return wire.Geometry{Tables: 2, Reduction: 2, Dim: 8, TableRows: 100, MaxBatch: 8}
}

// serveAt binds a backend at a fixed address (so a restart can reuse it)
// and returns the server.
func serveAt(t *testing.T, b netserve.Backend, addr string, cfg netserve.Config) *netserve.Server {
	t.Helper()
	srv, err := netserve.New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var l net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReconnectAfterServerRestart pins the supervised-reconnect contract:
// the client survives a full server restart between calls — fail-fast
// while the server is down (OnDown fired, Healthy false), automatically
// usable again once it is back (OnUp fired with the fresh hello).
func TestReconnectAfterServerRestart(t *testing.T) {
	var ups, downs atomic.Int64
	var lastHello atomic.Pointer[wire.Hello]
	addr := freeAddr(t)
	srv := serveAt(t, &echoBackend{}, addr, netserve.Config{Role: wire.RoleReplica})
	cl, err := netclient.Dial(addr, netclient.Config{
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
		OnUp: func(h wire.Hello) {
			lastHello.Store(&h)
			ups.Add(1)
		},
		OnDown: func(error) { downs.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if !cl.Healthy() {
		t.Fatal("client not healthy after successful dial")
	}

	// Apply one update so the restart hello's UpdateSeq is observable.
	if err := cl.Update([]runtime.TableUpdate{{Table: 0, Rows: []int{1}, Grads: tensor.New(1, 4)}}); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	waitCond(t, 5*time.Second, "OnDown", func() bool { return downs.Load() >= 1 })
	// While down: calls fail fast rather than hanging, and Healthy is
	// false.
	waitCond(t, 5*time.Second, "unhealthy", func() bool { return !cl.Healthy() })
	if err := cl.Ping(); err == nil {
		t.Fatal("ping succeeded with the server down")
	} else {
		var se *netclient.ServerError
		if errors.As(err, &se) {
			t.Fatalf("down-server ping returned a server error frame: %v", err)
		}
	}

	// Restart at the same address: the supervisor reconnects, OnUp fires
	// with the fresh hello (a fresh process: UpdateSeq back to 0), and
	// calls work again without a re-Dial.
	serveAt(t, &echoBackend{}, addr, netserve.Config{Role: wire.RoleReplica})
	waitCond(t, 5*time.Second, "OnUp", func() bool { return ups.Load() >= 1 })
	waitCond(t, 5*time.Second, "healthy", func() bool { return cl.Healthy() })
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after reconnect: %v", err)
	}
	h := lastHello.Load()
	if h == nil || h.Role != wire.RoleReplica || h.UpdateSeq != 0 {
		t.Fatalf("reconnect hello %+v, want RoleReplica at seq 0", h)
	}
	if got := cl.Hello(); got.UpdateSeq != 0 {
		t.Fatalf("Hello() seq %d after fresh restart, want 0", got.UpdateSeq)
	}
}

// freeAddr reserves a loopback address the test can bind servers to
// repeatedly.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestReconnectRejectsChangedGeometry pins that a server restarted with a
// different model is never silently reattached: the supervisor keeps the
// slot down (no OnUp, Healthy false, calls fail) until a server with the
// original geometry is back.
func TestReconnectRejectsChangedGeometry(t *testing.T) {
	addr := freeAddr(t)
	srv := serveAt(t, &echoBackend{}, addr, netserve.Config{})
	var ups atomic.Int64
	cl, err := netclient.Dial(addr, netclient.Config{
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
		OnUp:         func(wire.Hello) { ups.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv.Close()
	waitCond(t, 5*time.Second, "unhealthy", func() bool { return !cl.Healthy() })

	// Restart with a different geometry: the client must refuse it.
	wrong := serveAt(t, &wideBackend{}, addr, netserve.Config{})
	time.Sleep(150 * time.Millisecond) // several backoff cycles against the wrong server
	if ups.Load() != 0 {
		t.Fatal("client attached to a server announcing a different geometry")
	}
	if cl.Healthy() {
		t.Fatal("client healthy against a mismatching server")
	}
	if err := cl.Ping(); err == nil {
		t.Fatal("ping succeeded against a mismatching server")
	}

	// The right model comes back: now the client recovers.
	wrong.Close()
	serveAt(t, &echoBackend{}, addr, netserve.Config{})
	waitCond(t, 5*time.Second, "recovery", func() bool { return ups.Load() >= 1 && cl.Healthy() })
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after matching restart: %v", err)
	}
}

// TestClientSyncRoundTrip drives the sequenced-update path through the
// client: apply, idempotent replay, gap rejection.
func TestClientSyncRoundTrip(t *testing.T) {
	b, addr := startEcho(t)
	cl, err := netclient.Dial(addr, netclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := cl.Geometry()

	up := []runtime.TableUpdate{{Table: 0, Rows: []int{7}, Grads: tensor.New(1, g.Dim)}}
	seq, err := cl.Sync(0, up)
	if err != nil || seq != 1 {
		t.Fatalf("Sync(0) = %d, %v; want 1, nil", seq, err)
	}
	// Replay: acknowledged at the current count, not reapplied.
	seq, err = cl.Sync(0, up)
	if err != nil || seq != 1 {
		t.Fatalf("replayed Sync(0) = %d, %v; want 1, nil", seq, err)
	}
	if n := b.applied.Load(); n != 1 {
		t.Fatalf("%d updates applied after replay, want 1", n)
	}
	// Gap: typed BAD_REQUEST.
	_, err = cl.Sync(5, up)
	var se *netclient.ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrBadRequest {
		t.Fatalf("gapped Sync: err = %v, want BAD_REQUEST ServerError", err)
	}
	// Validation happens client-side before any frame goes out.
	if _, err := cl.Sync(1, nil); err == nil {
		t.Fatal("empty sync batch accepted")
	}
}

// TestStartEmbedAsync pins the hedged-read primitive: two overlapping
// async embeds on one client, each drained and finished independently,
// both correct.
func TestStartEmbedAsync(t *testing.T) {
	_, addr := startEcho(t)
	cl, err := netclient.Dial(addr, netclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := cl.Geometry()

	mkRows := func(base int) [][]int {
		rows := make([][]int, g.Tables)
		for t := range rows {
			rows[t] = make([]int, g.Reduction)
			for j := range rows[t] {
				rows[t][j] = base
			}
		}
		return rows
	}
	ca1, err := cl.StartEmbed(nil, mkRows(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	ca2, err := cl.StartEmbed(nil, mkRows(20), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ca2.Done(); err != nil {
		t.Fatal(err)
	}
	if err := <-ca1.Done(); err != nil {
		t.Fatal(err)
	}
	if ca1.Dst()[0] != 10 || ca2.Dst()[0] != 20 {
		t.Fatalf("async embeds decoded %g/%g, want 10/20", ca1.Dst()[0], ca2.Dst()[0])
	}
	cl.Finish(ca1)
	cl.Finish(ca2)
}
