//go:build !race

// Allocation pins are compiled out under the race detector, whose
// goroutine and channel instrumentation heap-allocates.

package serve

import (
	goruntime "runtime"
	"sync"
	"testing"

	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/workload"
)

// allocsPerOp runs clients goroutines × ops calls of op — once to grow
// every pool to the concurrency it will see, then measured — and returns
// the process's malloc count over the measured run integer-divided by the
// number of calls. That is testing.AllocsPerRun's arithmetic (and
// -benchmem's), kept at many requests in flight: batch merging only runs
// under concurrency, so a serial AllocsPerRun would pin a different path.
func allocsPerOp(t *testing.T, clients, ops int, op func(client int) error) uint64 {
	t.Helper()
	run := func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					if err := op(c); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	run()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	run()
	goruntime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d mallocs over %d ops", mallocs, clients*ops)
	return mallocs / uint64(clients*ops)
}

// TestServeZeroAlloc pins the micro-batcher's steady-state read path —
// EmbedInto with caller-owned buffers, 16 concurrent clients, a live
// telemetry registry — to 0 allocs/op. The geometry (4 tables x 4096 rows
// x dim 64, pairwise reduction, 4 DIMMs, 4-sample requests merged up to
// 64, Zipf 0.9 over a 64-batch feed) is the one every layer's pin shares.
func TestServeZeroAlloc(t *testing.T) {
	const clients, batch, maxBatch, workers = 16, 4, 64, 4
	m, err := recsys.Build(recsys.Config{
		Name: "alloc-pin", Tables: 4, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 4096, Hidden: []int{16},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{DIMMs: 4, PerDIMMBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	dep, err := runtime.DeployConcurrent(m, nd, maxBatch, workers, 2*workers)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{MaxBatch: maxBatch, Workers: workers}, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Instrument(telemetry.NewRegistry())

	gen, err := workload.NewZipfGenerator(m.Cfg.TableRows, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	feed := make([][][]int, 64)
	for i := range feed {
		feed[i] = gen.Batch(m.Cfg.Tables, batch, m.Cfg.Reduction)
	}
	dsts := make([][]float32, clients)
	cursors := make([]int, clients)
	got := allocsPerOp(t, clients, 400, func(c int) error {
		dst, err := srv.EmbedInto(dsts[c], feed[cursors[c]%len(feed)], batch)
		dsts[c] = dst
		cursors[c]++
		return err
	})
	if got != 0 {
		t.Fatalf("steady-state EmbedInto allocates %d times per op, want 0", got)
	}
}
