package cluster

// Buffer-reuse aliasing test for the cluster router: routerScratch objects,
// the shard-call worker pool, recycled cache payload buffers and EmbedInto
// destinations must never leak a reference into a returned result. Run
// under -race; mirrors the serve-layer test at the cluster boundary where
// cache hits (copied out of recyclable cache storage) and shard gathers
// (copied out of pooled scratch) merge into one output.

import (
	"sync"
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
)

func TestClusterResultsImmutableUnderConcurrentEmbedUpdate(t *testing.T) {
	mc := testConfig(3, 2, 64, false, isa.RAdd)
	for _, strategy := range []Strategy{TableWise, RowWise} {
		t.Run(strategy.String(), func(t *testing.T) {
			c, _ := buildCluster(t, mc, Config{
				Nodes: 2, Strategy: strategy, CacheBytes: 16 << 10,
			})
			const (
				readers  = 3
				updaters = 2
				rounds   = 20
				batch    = 2
			)
			type held struct {
				got  []float32
				want []float32
			}
			results := make([][]held, readers)
			var wg sync.WaitGroup
			errCh := make(chan error, readers+updaters)
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					gen, _ := workload.NewZipfGenerator(mc.TableRows, 0.9, int64(g))
					for i := 0; i < rounds; i++ {
						rows := gen.Batch(mc.Tables, batch, mc.Reduction)
						out, err := c.EmbedInto(nil, rows, batch)
						if err != nil {
							errCh <- err
							return
						}
						results[g] = append(results[g], held{got: out, want: append([]float32(nil), out...)})
					}
				}(g)
			}
			for u := 0; u < updaters; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					gen, _ := workload.NewZipfGenerator(mc.TableRows, 0.9, int64(50+u))
					for i := 0; i < rounds; i++ {
						grads := tensor.New(2, mc.EmbDim)
						grads.Fill(float32(u+1) * 0.5)
						up := runtime.TableUpdate{Table: (u + i) % mc.Tables, Rows: gen.Indices(2), Grads: grads}
						if err := c.ApplyUpdates([]runtime.TableUpdate{up}); err != nil {
							errCh <- err
							return
						}
					}
				}(u)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			for g, rs := range results {
				for i, h := range rs {
					for k := range h.got {
						if h.got[k] != h.want[k] {
							t.Fatalf("reader %d result %d mutated after return (elem %d)", g, i, k)
						}
					}
				}
			}
		})
	}
}
