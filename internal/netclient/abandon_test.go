package netclient_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
)

// stallBackend is echoBackend whose reads block until release is closed;
// each read signals entered as it arrives.
type stallBackend struct {
	echoBackend
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

// EmbedInto implements netserve.Backend.
func (b *stallBackend) EmbedInto(dst []float32, rows [][]int, batch int) ([]float32, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return b.echoBackend.EmbedInto(dst, rows, batch)
}

// unstall lets every held and future read through.
func (b *stallBackend) unstall() { b.once.Do(func() { close(b.release) }) }

// startStalled serves a stallBackend whose reads are held until unstall.
func startStalled(t *testing.T) (*stallBackend, string) {
	t.Helper()
	b := &stallBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := netserve.New(b, netserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	// Registered last, so it runs first: a failed test must not leave a read
	// held inside the backend while the server drains.
	t.Cleanup(b.unstall)
	return b, l.Addr().String()
}

// oneRow is a one-sample read of row base in every table.
func oneRow(base int) [][]int { return [][]int{{base, base}, {base, base}} }

// checkServes asserts the client still answers reads correctly.
func checkServes(t *testing.T, cl *netclient.Client) {
	t.Helper()
	for base := 30; base < 33; base++ {
		out, err := cl.EmbedInto(nil, oneRow(base), 1)
		if err != nil {
			t.Fatalf("read after the straggler: %v", err)
		}
		if out[0] != float32(base) {
			t.Fatalf("read after the straggler decoded %g, want %d", out[0], base)
		}
	}
}

// TestDeadlineDropsLateResponse: a read against a stalled backend fails
// with a *DeadlineError within its budget, the response that arrives after
// the stall clears is dropped on the tombstone rather than failing the
// connection as an unknown request id, and the one connection keeps
// serving.
func TestDeadlineDropsLateResponse(t *testing.T) {
	const budget = 50 * time.Millisecond
	b, addr := startStalled(t)
	cl, err := netclient.Dial(addr, netclient.Config{Conns: 1, Deadline: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	_, err = cl.EmbedInto(nil, oneRow(10), 1)
	elapsed := time.Since(start)
	var de *netclient.DeadlineError
	if !errors.As(err, &de) || de.Budget != budget {
		t.Fatalf("stalled read: err = %v, want *DeadlineError{Budget: %v}", err, budget)
	}
	if elapsed < budget || elapsed > budget+time.Second {
		t.Fatalf("stalled read failed after %v, budget was %v", elapsed, budget)
	}
	if n := cl.Tombstones(); n != 1 {
		t.Fatalf("%d tombstones after the deadline, want 1", n)
	}

	b.unstall() // the held read answers now, past its deadline
	waitCond(t, 5*time.Second, "the late response to be dropped", func() bool { return cl.Tombstones() == 0 })
	if !cl.Healthy() {
		t.Fatal("the late response broke the connection")
	}
	checkServes(t, cl)
}

// TestAbandonInFlightStartEmbed: Abandon on a started read whose response
// has not arrived returns at once and drops that response when it comes;
// Abandon on a read the reader has already delivered takes the result. The
// same connection serves later calls either way.
func TestAbandonInFlightStartEmbed(t *testing.T) {
	b, addr := startStalled(t)
	cl, err := netclient.Dial(addr, netclient.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ca, err := cl.StartEmbed(nil, oneRow(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	<-b.entered
	abandoned := make(chan struct{})
	go func() {
		cl.Abandon(ca)
		close(abandoned)
	}()
	select {
	case <-abandoned:
	case <-time.After(5 * time.Second):
		t.Fatal("Abandon waited for a response the backend still holds")
	}
	if n := cl.Tombstones(); n != 1 {
		t.Fatalf("%d tombstones after Abandon, want 1", n)
	}
	b.unstall()
	waitCond(t, 5*time.Second, "the abandoned response to be dropped", func() bool { return cl.Tombstones() == 0 })
	checkServes(t, cl)

	// The reader claimed this one before Abandon: no tombstone, the
	// delivered result is taken and the call recycled.
	ca, err = cl.StartEmbed(nil, oneRow(20), 1)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, "the response to be delivered", func() bool { return len(ca.Done()) == 1 })
	cl.Abandon(ca)
	if n := cl.Tombstones(); n != 0 {
		t.Fatalf("%d tombstones after abandoning a delivered call, want 0", n)
	}
	checkServes(t, cl)
}
