package cluster

import (
	goruntime "runtime"
	"strings"
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
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

// TestConcurrentCloseWaitsForTeardown: a read started and not yet awaited
// holds the router's drain, so a first Close parks in it. A second Close
// must not return while the first is still draining, with the shards still
// open: it parks too, and both return once the read was awaited and the
// shards are closed. Every wait is observed on the goroutine stacks, never
// by sleeping.
func TestConcurrentCloseWaitsForTeardown(t *testing.T) {
	mc := testConfig(2, 2, 64, false, isa.RAdd)
	c, m := buildCluster(t, mc, Config{Nodes: 2})
	gen, _ := workload.NewGenerator(mc.TableRows, workload.Uniform, 1)
	rows := gen.Batch(mc.Tables, 1, mc.Reduction)
	p, err := c.StartEmbedInto(nil, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- c.Close() }()
	for parked("sync.(*WaitGroup).Wait", "cluster.(*Cluster).Close") == 0 {
		goruntime.Gosched()
	}
	go func() { second <- c.Close() }()
	for parked("cluster.(*Cluster).Close") < 2 {
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
	if gt, err := tensor.FromSlice(got, 1, mc.Tables*mc.EmbDim); err != nil || !tensor.Equal(gt, want) {
		t.Fatalf("started read differs from golden (err %v)", err)
	}
	for _, done := range []chan error{second, first} {
		if err := <-done; err != nil {
			t.Fatalf("Close: %v", err)
		}
		for _, sh := range c.shard {
			if _, err := sh.srv.EmbedInto(nil, [][]int{{0}}, 1); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("shard %d not closed after a Close returned (err %v)", sh.id, err)
			}
		}
	}
}
