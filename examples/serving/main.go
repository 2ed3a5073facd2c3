// Serving walkthrough: deploy a recommender model with concurrent execution
// slots, stand up the batched inference server, drive it from several client
// goroutines at once, verify every result against the pure-software golden
// model, and read the server's telemetry: request, sample and merged-batch
// counters and the queue and total latency histograms.
package main

import (
	"fmt"
	"log"
	"os"
	"slices"
	"sync"

	"tensordimm"
)

func main() {
	// A TensorNode with 8 TensorDIMMs of 32 MiB each.
	nd, err := tensordimm.NewNode(8, 32<<20)
	if err != nil {
		log.Fatal(err)
	}

	// A Facebook-style workload, shrunk to demo size: 4 lookup tables,
	// 8-way mean pooling, 128-dim embeddings (one stripe on 8 DIMMs).
	cfg := tensordimm.Facebook()
	cfg.Tables = 4
	cfg.TableRows = 2000
	cfg.EmbDim = 128
	cfg.Reduction = 8
	cfg.Hidden = []int{64, 32, 16, 8}
	cfg.FCLayers = len(cfg.Hidden)

	model, err := tensordimm.BuildModel(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Concurrency sizing: 2 execution slots (two merged batches in flight)
	// and one scratch lane per table per slot (full table fan-out).
	const maxBatch, slots = 16, 2
	dep, err := tensordimm.DeployConcurrent(model, nd, maxBatch, slots, slots*cfg.Tables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %s: %d tables x %d rows, %d slots, %d lanes\n",
		cfg.Name, cfg.Tables, cfg.TableRows, dep.Slots(), dep.Lanes())

	// The server coalesces concurrent requests into merged batches of up
	// to maxBatch samples: whatever queued while its workers were busy.
	srv, err := tensordimm.NewServer(tensordimm.ServeConfig{MaxBatch: maxBatch}, dep)
	if err != nil {
		log.Fatal(err)
	}
	// The server's counters and latency histograms, exposed on a registry
	// before the traffic they measure.
	reg := tensordimm.NewTelemetry()
	srv.Instrument(reg)

	// Eight clients, each issuing a stream of small requests — the shape
	// of production recommendation traffic (deployed batches of 1-100).
	const clients, perClient = 8, 10
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen, err := tensordimm.NewWorkload(cfg.TableRows, tensordimm.Zipfian, int64(c)+1)
			if err != nil {
				errs[c] = err
				return
			}
			var got []float32 // reused across this client's requests
			for i := 0; i < perClient; i++ {
				batch := 1 + (c+i)%4
				rows := gen.Batch(cfg.Tables, batch, cfg.Reduction)

				// The server merges this request with whatever else is
				// in flight; the result is still bit-identical to
				// running it alone.
				got, err = srv.EmbedInto(got, rows, batch)
				if err != nil {
					errs[c] = err
					return
				}
				want, err := model.Embedding.Forward(rows, batch)
				if err != nil {
					errs[c] = err
					return
				}
				if !slices.Equal(got, want.Data()) {
					errs[c] = fmt.Errorf("client %d: batched result differs from golden model", c)
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
	fmt.Printf("%d clients x %d requests: all results bit-identical to the golden model\n\n",
		clients, perClient)

	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	reg.Snapshot().WriteText(os.Stdout)
}
