package netserve_test

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/serve"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
)

// e2eModel is the end-to-end test geometry: dim 64 = one stripe on a
// 4-DIMM node, 301 rows so row-wise shard boundaries are uneven.
func e2eModel(t *testing.T) *recsys.Model {
	t.Helper()
	m, err := recsys.Build(recsys.Config{
		Name: "e2e", Tables: 2, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 301, Hidden: []int{8},
	}, 99)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serveOver starts a netserve.Server over the backend on a loopback
// listener and returns its address. Close order is registered so the
// network plane drains before the backend is torn down.
func serveOver(t *testing.T, b netserve.Backend) string {
	t.Helper()
	srv, err := netserve.New(b, netserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// TestE2EClusterBitIdentity serves a sharded cluster over a loopback
// listener, hammers it with concurrent pipelined network clients mixing
// embeds and updates (under -race in CI), then quiesces and asserts the
// network path, the in-process path and the golden model agree
// bit-for-bit — for both sharding strategies.
func TestE2EClusterBitIdentity(t *testing.T) {
	for _, strat := range []cluster.Strategy{cluster.TableWise, cluster.RowWise} {
		strat := strat
		t.Run(fmt.Sprint(strat), func(t *testing.T) {
			m := e2eModel(t)
			mc := m.Cfg
			cl, err := cluster.New(m, cluster.Config{
				Nodes: 3, Strategy: strat, DIMMsPerNode: 4,
				MaxBatch: 8, CacheBytes: 64 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			addr := serveOver(t, netserve.ClusterBackend(cl))

			nc, err := netclient.Dial(addr, netclient.Config{Conns: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nc.Close() })

			// Phase 1: concurrent mixed traffic over the network — pipelined
			// embeds racing gradient updates. Everything must succeed; values
			// are checked after quiescence (reads racing updates may observe
			// either side of an in-flight update by design).
			clients, iters := 6, 40
			if testing.Short() {
				clients, iters = 4, 15
			}
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					gen, err := workload.NewGenerator(mc.TableRows, workload.Uniform, int64(1000+w))
					if err != nil {
						errCh <- err
						return
					}
					rng := rand.New(rand.NewSource(int64(w)))
					var dst []float32
					for i := 0; i < iters; i++ {
						if rng.Float64() < 0.2 {
							rows := gen.Indices(3)
							grads := tensor.New(len(rows), mc.EmbDim)
							for k := range grads.Data() {
								grads.Data()[k] = rng.Float32()*0.02 - 0.01
							}
							up := []runtime.TableUpdate{{Table: rng.Intn(mc.Tables), Rows: rows, Grads: grads}}
							if err := nc.Update(up); err != nil {
								errCh <- fmt.Errorf("client %d update %d: %w", w, i, err)
								return
							}
							continue
						}
						batch := 1 + rng.Intn(4)
						rows := gen.Batch(mc.Tables, batch, mc.Reduction)
						dst, err = nc.EmbedInto(dst, rows, batch)
						if err != nil {
							errCh <- fmt.Errorf("client %d embed %d: %w", w, i, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}

			// Phase 2: quiesced bit-identity. For a spread of fixed batches,
			// the network round trip, the in-process cluster path and the
			// golden model must agree bit-for-bit.
			gen, err := workload.NewGenerator(mc.TableRows, workload.Uniform, 7)
			if err != nil {
				t.Fatal(err)
			}
			var netDst, inDst []float32
			for rep := 0; rep < 10; rep++ {
				batch := 1 + rep%4
				rows := gen.Batch(mc.Tables, batch, mc.Reduction)
				netDst, err = nc.EmbedInto(netDst, rows, batch)
				if err != nil {
					t.Fatal(err)
				}
				inDst, err = cl.EmbedInto(inDst, rows, batch)
				if err != nil {
					t.Fatal(err)
				}
				golden, err := cl.GoldenEmbedding(rows, batch)
				if err != nil {
					t.Fatal(err)
				}
				gd := golden.Data()
				for i := range inDst {
					if netDst[i] != inDst[i] || inDst[i] != gd[i] {
						t.Fatalf("rep %d elem %d: net %g, in-process %g, golden %g — not bit-identical",
							rep, i, netDst[i], inDst[i], gd[i])
					}
				}
			}
		})
	}
}

// TestE2EServeBitIdentity is the single-node variant: a serve.Server
// behind the network plane, with concurrent read-only clients whose every
// response must already be bit-identical to the in-process path (no
// updates in flight, so there is no settling window).
func TestE2EServeBitIdentity(t *testing.T) {
	m := e2eModel(t)
	mc := m.Cfg
	srv, err := serve.Deploy(m, 4, serve.Config{MaxBatch: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := serveOver(t, netserve.ServerBackend(srv))

	nc, err := netclient.Dial(addr, netclient.Config{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })

	clients, iters := 4, 25
	if testing.Short() {
		clients, iters = 3, 10
	}
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen, err := workload.NewGenerator(mc.TableRows, workload.Uniform, int64(50+w))
			if err != nil {
				errCh <- err
				return
			}
			var dst []float32
			for i := 0; i < iters; i++ {
				batch := 1 + i%4
				rows := gen.Batch(mc.Tables, batch, mc.Reduction)
				dst, err = nc.EmbedInto(dst, rows, batch)
				if err != nil {
					errCh <- err
					return
				}
				golden, err := m.Embedding.Forward(rows, batch)
				if err != nil {
					errCh <- err
					return
				}
				gd := golden.Data()
				for k := range dst {
					if dst[k] != gd[k] {
						errCh <- fmt.Errorf("client %d iter %d elem %d: net %g, golden %g", w, i, k, dst[k], gd[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
