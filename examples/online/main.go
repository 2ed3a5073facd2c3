// Online-update walkthrough: serve a sharded cluster with hot-row caches
// while training updates stream in. The example warms the caches with
// skewed reads, applies SCATTER_ADD gradient updates cluster-wide, shows
// the per-shard invalidation counters doing their job, and proves the
// coherence contract: every read after an update is bit-identical to a
// sequential single-node golden model — hot cached rows included.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"slices"
	"sync"

	"tensordimm"
)

func main() {
	// A YouTube-style workload shrunk to demo size: 2 tables x 4001 rows,
	// 4-way mean pooling, 128-dim embeddings.
	cfg := tensordimm.YouTube()
	cfg.Tables = 2
	cfg.TableRows = 4001
	cfg.EmbDim = 128
	cfg.Reduction = 4
	cfg.Hidden = []int{32, 16}
	cfg.FCLayers = len(cfg.Hidden)

	model, err := tensordimm.BuildModel(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := tensordimm.NewCluster(model, tensordimm.ClusterConfig{
		Nodes:      2,
		Strategy:   tensordimm.TableWise,
		CacheBytes: 128 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	reg := tensordimm.NewTelemetry()
	cl.Instrument(reg)

	// Phase 1 — warm the caches: Zipf(0.9) reads concentrate on hot rows,
	// so a second pass over the same distribution mostly hits.
	gen, err := tensordimm.NewZipfWorkload(cfg.TableRows, 0.9, 7)
	if err != nil {
		log.Fatal(err)
	}
	const batch = 8
	for round := 0; round < 2; round++ { // round 2 hits what round 1 cached
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			rows := gen.Batch(cfg.Tables, batch, cfg.Reduction)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cl.EmbedInto(nil, rows, batch); err != nil {
					log.Fatal(err)
				}
			}()
		}
		wg.Wait()
	}
	hits, misses := total(reg, "tensordimm_cluster_cache_hits_total"), total(reg, "tensordimm_cluster_cache_misses_total")
	fmt.Printf("after warmup: %.1f%% hit rate, %.0f rows cached\n",
		100*hits/(hits+misses), total(reg, "tensordimm_cluster_cache_rows"))

	// Phase 2 — online updates: accumulate gradients into the hottest rows
	// (0..15 under Zipf skew) of both tables. Each update routes through
	// the same placement as reads, scatters near-memory on the owning
	// shard, and invalidates the now-stale cache entries. Touch those rows
	// once first so they're freshly resident and the invalidations are
	// visible in the counters.
	hot := make([][]int, cfg.Tables)
	for t := range hot {
		hot[t] = make([]int, 4*cfg.Reduction)
		for j := range hot[t] {
			hot[t][j] = j % 16
		}
	}
	if _, err := cl.EmbedInto(nil, hot, 4); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 10; step++ {
		var ups []tensordimm.TableUpdate
		for t := 0; t < cfg.Tables; t++ {
			rows := []int{rng.Intn(16), rng.Intn(16), rng.Intn(16)}
			grads := tensordimm.NewTensor(len(rows), cfg.EmbDim)
			for i := range grads.Data() {
				grads.Data()[i] = rng.Float32()*0.02 - 0.01
			}
			ups = append(ups, tensordimm.TableUpdate{Table: t, Rows: rows, Grads: grads})
		}
		if err := cl.ApplyUpdates(ups); err != nil {
			log.Fatal(err)
		}
		// The cluster keeps no copy of the tables, so the model it was
		// built from is this program's golden: it absorbs every
		// acknowledged update in the same order.
		for _, up := range ups {
			tensordimm.AccumulateGolden(model.Embedding.Tables[up.Table], up)
		}
	}
	fmt.Printf("after %.0f update batches: %.0f gradient rows scattered, %.0f cache invalidations\n",
		total(reg, "tensordimm_cluster_updates_total"), total(reg, "tensordimm_cluster_update_rows_total"),
		total(reg, "tensordimm_cluster_cache_invalidations_total"))

	// Phase 3 — coherence proof: re-read the updated hot rows (and a spread
	// of cold ones) and compare bit-for-bit with the golden model, which
	// absorbed the same updates after each acknowledgement. A stale cache
	// entry or a missed shard scatter would break equality.
	checks := 0
	var got []float32 // reused across the reads
	for i := 0; i < 32; i++ {
		rows := gen.Batch(cfg.Tables, batch, cfg.Reduction)
		for t := range rows {
			rows[t][0] = rng.Intn(16) // always touch an updated hot row
		}
		got, err = cl.EmbedInto(got, rows, batch)
		if err != nil {
			log.Fatal(err)
		}
		want, err := model.Embedding.Forward(rows, batch)
		if err != nil {
			log.Fatal(err)
		}
		if !slices.Equal(got, want.Data()) {
			log.Fatalf("read %d diverged from the sequential golden model", i)
		}
		checks++
	}
	fmt.Printf("%d post-update reads bit-identical to the sequential golden model\n\n", checks)
	reg.Snapshot().WriteText(os.Stdout)
}

// total sums one series name across its labels (the cluster's shards) in
// a fresh snapshot of the registry, counters and gauges alike.
func total(reg *tensordimm.TelemetryRegistry, name string) float64 {
	snap := reg.Snapshot()
	n := 0.0
	for _, c := range snap.Counters {
		if c.Name == name {
			n += float64(c.Value)
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == name {
			n += g.Value
		}
	}
	return n
}
