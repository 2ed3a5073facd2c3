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
	"tensordimm/internal/tensor"
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

// allocPinServer builds the geometry every layer's allocation pin shares —
// 4 tables x 4096 rows x dim 64, pairwise reduction, 4 DIMMs, merges up to
// 64 samples on 4 workers — with a live telemetry registry.
func allocPinServer(t *testing.T) (*Server, recsys.Config) {
	t.Helper()
	const maxBatch, workers = 64, 4
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
	t.Cleanup(func() { nd.Close() })
	dep, err := runtime.DeployConcurrent(m, nd, maxBatch, workers, 2*workers)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{MaxBatch: maxBatch, Workers: workers}, dep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Instrument(telemetry.NewRegistry())
	return srv, m.Cfg
}

// TestServeZeroAlloc pins the steady-state read path — EmbedInto with
// caller-owned buffers, 16 concurrent clients of 4-sample requests, Zipf
// 0.9 over a 64-batch feed — to 0 allocs/op.
func TestServeZeroAlloc(t *testing.T) {
	const clients, batch = 16, 4
	srv, cfg := allocPinServer(t)
	gen, err := workload.NewZipfGenerator(cfg.TableRows, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	feed := make([][][]int, 64)
	for i := range feed {
		feed[i] = gen.Batch(cfg.Tables, batch, cfg.Reduction)
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

// TestServeUpdateZeroAlloc pins the steady-state write path — Update with
// caller-owned rows and gradients, 4 concurrent writers of 8-row updates —
// to 0 allocs/op at both levels: a direct Deployment.ApplyUpdates (on the
// caller's goroutine, the deployment's update lane) and Update on top of it
// (the check, the admission gate, the apply and the counters). Each feed is
// one input: a batch of one table's rows, and a batch with one entry on
// each of two tables.
func TestServeUpdateZeroAlloc(t *testing.T) {
	const clients, rows = 4, 8
	for _, tc := range []struct {
		name   string
		tables int // entries per batch, each on its own table
	}{
		{"single-table", 1},
		{"two-table", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, cfg := allocPinServer(t)
			gen, err := workload.NewZipfGenerator(cfg.TableRows, 0.9, 11)
			if err != nil {
				t.Fatal(err)
			}
			feed := make([][]runtime.TableUpdate, 64)
			for i := range feed {
				for e := 0; e < tc.tables; e++ {
					grads := tensor.New(rows, cfg.EmbDim)
					grads.Fill(0.001)
					feed[i] = append(feed[i], runtime.TableUpdate{Table: (i + e) % cfg.Tables, Rows: gen.Indices(rows), Grads: grads})
				}
			}
			cursors := make([]int, clients)
			next := func(c int) []runtime.TableUpdate {
				cursors[c]++
				return feed[(c+cursors[c]*clients)%len(feed)]
			}
			below := allocsPerOp(t, clients, 400, func(c int) error { return srv.dep.ApplyUpdates(next(c)) })
			if below != 0 {
				t.Fatalf("steady-state %s ApplyUpdates allocates %d times per op, want 0", tc.name, below)
			}
			got := allocsPerOp(t, clients, 400, func(c int) error { return srv.Update(next(c)) })
			if got != 0 {
				t.Fatalf("steady-state %s Update allocates %d times per op, want 0", tc.name, got)
			}
		})
	}
}
