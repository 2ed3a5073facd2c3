// Cluster walkthrough: shard one recommender model row-wise across four
// TensorNodes with a hot-row cache in front of each shard, drive it with a
// skewed Zipf(0.9) workload from concurrent clients, verify every merged
// result bit-for-bit against the pure-software golden model, and read the
// cluster's telemetry: per-shard routing, cache and fabric series.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"

	"tensordimm"
	"tensordimm/internal/tensor"
)

func main() {
	// A Facebook-style workload, shrunk to demo size: 4 lookup tables of
	// 3001 rows (deliberately not divisible by the shard count), 8-way
	// mean pooling, 128-dim embeddings.
	cfg := tensordimm.Facebook()
	cfg.Tables = 4
	cfg.TableRows = 3001
	cfg.EmbDim = 128
	cfg.Reduction = 8
	cfg.Hidden = []int{64, 32, 16, 8}
	cfg.FCLayers = len(cfg.Hidden)

	model, err := tensordimm.BuildModel(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}

	// The cluster quickstart: shard the model across 4 nodes, rows hashed
	// across shards (the placement for tables too large for one node),
	// 256 KiB of hot-row cache per shard.
	cl, err := tensordimm.NewCluster(model, tensordimm.ClusterConfig{
		Nodes:      4,
		Strategy:   tensordimm.RowWise,
		CacheBytes: 256 << 10,
		MaxBatch:   16,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	reg := tensordimm.NewTelemetry()
	cl.Instrument(reg)

	// Production embedding traffic is heavily skewed; Zipf(0.9) is the
	// published fit. The hot-row caches turn that skew into hit rate.
	gen, err := tensordimm.NewZipfWorkload(cfg.TableRows, 0.9, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Drive the router from 4 concurrent clients; check every merged
	// result against the golden single-model inference.
	const clients, perClient = 4, 50
	requests := make([][][]int, clients*perClient)
	for i := range requests {
		requests[i] = gen.Batch(cfg.Tables, 4, cfg.Reduction)
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// The router merges the shards' partial results into the
			// pooled [4, tables*dim] embeddings; the DNN stage then runs
			// here, on the client that received them.
			emb := tensordimm.NewTensor(4, cfg.Tables*cfg.EmbDim)
			for i := 0; i < perClient; i++ {
				rows := requests[c*perClient+i]
				if _, err := cl.EmbedInto(emb.Data(), rows, 4); err != nil {
					errs[c] = err
					return
				}
				got, err := model.InferFromEmbeddings(emb)
				if err != nil {
					errs[c] = err
					return
				}
				want, err := model.Infer(rows, 4)
				if err != nil {
					errs[c] = err
					return
				}
				if !tensor.Equal(got, want) {
					errs[c] = fmt.Errorf("client %d: cluster result differs from golden", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("%d requests served and verified bit-identical to the golden model\n\n", clients*perClient)
	reg.Snapshot().WriteText(os.Stdout)
}
