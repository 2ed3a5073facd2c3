//go:build !race

// Allocation pins are compiled out under the race detector, whose
// goroutine and channel instrumentation heap-allocates.

package cluster

import (
	"runtime"
	"sync"
	"testing"

	"tensordimm/internal/recsys"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/workload"
)

// allocsPerOp runs clients goroutines × ops calls of op — once to grow
// every pool to the concurrency it will see, then measured — and returns
// the process's malloc count over the measured run integer-divided by the
// number of calls: testing.AllocsPerRun's arithmetic, kept at many
// requests in flight, because router scratch pooling and shard-side batch
// merging only run under concurrency.
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d mallocs over %d ops", mallocs, clients*ops)
	return mallocs / uint64(clients*ops)
}

// pinEmbedInto drives an instrumented 2-shard cluster with 8 concurrent
// clients over EmbedInto and fails unless the read path stays at
// 0 allocs/op. Geometry as in serve's pin: 4 tables x 4096 rows x dim 64,
// pairwise reduction, 4 DIMMs per node, 4-sample requests, Zipf 0.9 over a
// 64-batch feed.
func pinEmbedInto(t *testing.T, cacheBytes int64) {
	const clients, batch = 8, 4
	c, m := buildCluster(t, recsys.Config{
		Name: "alloc-pin", Tables: 4, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 4096, Hidden: []int{16},
	}, Config{Nodes: 2, DIMMsPerNode: 4, MaxBatch: 64, CacheBytes: cacheBytes})
	c.Instrument(telemetry.NewRegistry())

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
	got := allocsPerOp(t, clients, 400, func(cl int) error {
		dst, err := c.EmbedInto(dsts[cl], feed[cursors[cl]%len(feed)], batch)
		dsts[cl] = dst
		cursors[cl]++
		return err
	})
	if got != 0 {
		t.Fatalf("steady-state EmbedInto allocates %d times per op, want 0", got)
	}
}

// TestClusterHitZeroAlloc pins the warm-cache read: route, probe the
// hot-row caches, merge.
func TestClusterHitZeroAlloc(t *testing.T) { pinEmbedInto(t, 256<<10) }

// TestClusterMissZeroAlloc pins the same read with the caches disabled, so
// every request takes the router's miss path — Call.Start on both shard
// servers, then Call.Wait on each, over serve.Pending handles — which the
// warm-cache pin touches about once per thousand requests.
func TestClusterMissZeroAlloc(t *testing.T) { pinEmbedInto(t, 0) }

// TestRowCacheZeroAlloc pins the cache itself: on a cache at capacity, a
// probe batch, the fill of its misses (every insert evicts) and an
// invalidation recycle slab slots in place — no entry, list node or payload
// is ever allocated.
func TestRowCacheZeroAlloc(t *testing.T) {
	const dim, capRows, localRows, batch = 64, 32, 256, 16
	c := newRowCache(capRows*dim*4, dim, localRows)
	rows, hit := make([]int, batch), make([]bool, batch)
	dst, vecs := make([]float32, batch*dim), make([]float32, batch*dim)
	misses := make([]int, 0, batch)
	next := 0
	cycle := func() {
		for k := range rows {
			rows[k] = (next + k) % localRows // the first half was filled one cycle ago
		}
		next += batch / 2
		ver := c.probe(rows, hit, dst)
		misses = misses[:0]
		for k, row := range rows {
			if !hit[k] {
				misses = append(misses, row)
			}
		}
		c.fill(misses, vecs, ver)
		c.invalidate(rows[:2])
	}
	for i := 0; i < 4*localRows/batch; i++ {
		cycle()
	}
	if c.len() < capRows-2 {
		t.Fatalf("cache holds %d rows after warm-up, want it at its %d-row capacity", c.len(), capRows)
	}
	hits, evicted := c.hits.Load(), c.invalidations.Load()
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Fatalf("probe + fill + invalidate allocates %v times per cycle, want 0", got)
	}
	if c.hits.Load() == hits || c.invalidations.Load() == evicted {
		t.Fatalf("measured cycles took %d hits and %d invalidations: the pin must exercise both",
			c.hits.Load()-hits, c.invalidations.Load()-evicted)
	}
}
