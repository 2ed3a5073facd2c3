package gate

import (
	"errors"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// parked counts the goroutines that are blocked (not running or runnable)
// with every one of frames on their stack.
func parked(frames ...string) int {
	n := 0
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:goruntime.Stack(buf, true)]), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[running") || strings.Contains(header, "[runnable") {
			continue
		}
		all := true
		for _, f := range frames {
			all = all && strings.Contains(g, f)
		}
		if all {
			n++
		}
	}
	return n
}

// TestGateEnterAfterCloseRefused: a closed gate admits nothing, and its
// teardown ran once Close returned.
func TestGateEnterAfterCloseRefused(t *testing.T) {
	var g Gate
	if !g.Enter() {
		t.Fatal("an open gate refused Enter")
	}
	g.Exit()
	ran := false
	if err := g.Close(func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Close returned without running the teardown")
	}
	if g.Enter() {
		t.Fatal("Enter admitted an operation after Close")
	}
}

// TestGateCloseWaitsForExit: Close parks in its drain while an admitted
// operation has not exited — observed on the goroutine stacks, never by a
// sleep — and runs the teardown only after the Exit.
func TestGateCloseWaitsForExit(t *testing.T) {
	var g Gate
	if !g.Enter() {
		t.Fatal("an open gate refused Enter")
	}
	var exited, tornDown atomic.Bool
	closed := make(chan error, 1)
	go func() {
		closed <- g.Close(func() error {
			if !exited.Load() {
				t.Error("teardown ran before the admitted operation exited")
			}
			tornDown.Store(true)
			return nil
		})
	}()
	for parked("sync.(*WaitGroup).Wait", "gate.(*Gate).Close") == 0 {
		select {
		case err := <-closed:
			t.Fatalf("Close returned (err %v) while an operation was admitted", err)
		default:
			goruntime.Gosched()
		}
	}
	if g.Enter() {
		t.Fatal("Enter admitted an operation while Close was draining")
	}
	exited.Store(true)
	g.Exit()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if !tornDown.Load() {
		t.Fatal("Close returned before the teardown ran")
	}
}

// TestGateConcurrentCloseSharesTeardown: N concurrent Close calls run the
// teardown once, and every one of them returns after it with its error.
// The teardown is held until every other caller is parked on the gate, so
// a Close that returned early would be seen.
func TestGateConcurrentCloseSharesTeardown(t *testing.T) {
	const n = 8
	var g Gate
	want := errors.New("teardown failed")
	var runs atomic.Int32
	release := make(chan struct{})
	teardown := func() error {
		runs.Add(1)
		<-release
		return want
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- g.Close(teardown) }()
	}
	for parked("gate.(*Gate).Close") < n {
		select {
		case err := <-errs:
			close(release)
			t.Fatalf("a Close returned (err %v) while the teardown was running", err)
		default:
			goruntime.Gosched()
		}
	}
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != want {
			t.Fatalf("Close %d returned %v, want the teardown's %v", i, err, want)
		}
	}
	if r := runs.Load(); r != 1 {
		t.Fatalf("teardown ran %d times, want once", r)
	}
	if err := g.Close(teardown); err != want {
		t.Fatalf("a later Close returned %v, want the teardown's %v", err, want)
	}
}

// TestGateNilTeardown: Close with no teardown still drains and closes.
func TestGateNilTeardown(t *testing.T) {
	var g Gate
	if err := g.Close(nil); err != nil {
		t.Fatal(err)
	}
	if g.Enter() {
		t.Fatal("Enter admitted an operation after Close")
	}
	if err := g.Close(nil); err != nil {
		t.Fatal(err)
	}
}

// TestGateStress races operations against Close (run it under -race): no
// admitted operation is still inside when the teardown runs, and none is
// admitted after.
func TestGateStress(t *testing.T) {
	for round := 0; round < 50; round++ {
		var g Gate
		var inside atomic.Int32
		var tornDown atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if !g.Enter() {
						return
					}
					inside.Add(1)
					if tornDown.Load() {
						t.Error("an operation was admitted after the teardown ran")
					}
					inside.Add(-1)
					g.Exit()
				}
			}()
		}
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.Close(func() error {
					if n := inside.Load(); n != 0 {
						t.Errorf("teardown ran with %d operations inside", n)
					}
					tornDown.Store(true)
					return nil
				})
				if !tornDown.Load() {
					t.Error("Close returned before the teardown ran")
				}
			}()
		}
		wg.Wait()
	}
}
