package remote_test

import (
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"tensordimm/internal/cluster"
)

// onStacks counts the goroutines with every one of frames on their stack;
// blocked leaves out the running and runnable ones.
func onStacks(blocked bool, frames ...string) int {
	n := 0
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:goruntime.Stack(buf, true)]), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if blocked && (strings.Contains(header, "[running") || strings.Contains(header, "[runnable")) {
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

// TestConcurrentCloseWaitsForTeardown: a read sent on the wire and not yet
// awaited holds the router's drain, so a first Close parks in it. A second
// Close must not return while the first is still draining, with the
// janitor, the replica clients and the logs still open: it parks too, and
// both return once the read was awaited and the teardown has run. Every
// wait is observed on the goroutine stacks, never by sleeping.
func TestConcurrentCloseWaitsForTeardown(t *testing.T) {
	m := buildModel(t)
	_, addrs := startFleet(t, cluster.RowWise, 2, 1)
	rc := newRouter(t, m, cluster.RowWise, addrs, nil)
	if err := rc.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	rows := [][]int{{0, 300}, {150, 151}}
	p, err := rc.SendEmbedInto(nil, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- rc.Close() }()
	for onStacks(true, "sync.(*WaitGroup).Wait", "remote.(*RemoteCluster).Close") == 0 {
		goruntime.Gosched()
	}
	go func() { second <- rc.Close() }()
	for onStacks(true, "remote.(*RemoteCluster).Close") < 2 {
		select {
		case err := <-second:
			p.Wait()
			t.Fatalf("second Close returned (err %v) while a started read was unwaited", err)
		default:
			goruntime.Gosched()
		}
	}

	got, err := p.Wait()
	if err != nil {
		t.Fatalf("started read after Close began: %v", err)
	}
	want, err := m.Embedding.Forward(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Data() {
		if got[i] != w {
			t.Fatalf("value %d: remote %v != golden %v", i, got[i], w)
		}
	}
	for _, done := range []chan error{second, first} {
		if err := <-done; err != nil {
			t.Fatalf("Close: %v", err)
		}
		if n := onStacks(false, "remote.(*RemoteCluster).janitor"); n != 0 {
			t.Fatalf("a Close returned with %d janitor goroutines still running", n)
		}
	}
	if _, err := rc.EmbedInto(nil, rows, 1); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("read after Close: err %v, want the router's closed error", err)
	}
}
