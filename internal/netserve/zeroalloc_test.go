//go:build !race

// Allocation pins are compiled out under the race detector, whose
// goroutine and channel instrumentation heap-allocates.

package netserve_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/recsys"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/workload"
)

// allocsPerOp runs clients goroutines × ops calls of op — once to grow
// every pool to the concurrency it will see, then measured — and returns
// the process's malloc count over the measured run integer-divided by the
// number of calls: testing.AllocsPerRun's arithmetic, so the network
// path's contract stays "amortized 0" (a few hundred mallocs over tens of
// thousands of round trips), kept at many requests in flight because frame
// coalescing on both endpoints only runs under concurrency.
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

// pinRoundTrip drives the whole network plane on loopback — 128 closed-loop
// clients funnelled through one connection, so the client's group-commit
// buffer and the server's linger window fill — against an instrumented
// netserve.Server fronting an instrumented warm-cache 2-shard cluster, and
// fails unless encode, send coalescing, admission, backend execution,
// response coalescing and decode together stay at 0 allocs/op. Geometry as
// in the serve and cluster pins. Returns the server for metric checks.
func pinRoundTrip(t *testing.T, deadline time.Duration) *netserve.Server {
	const clients, batch = 128, 4
	m, err := recsys.Build(recsys.Config{
		Name: "alloc-pin", Tables: 4, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 4096, Hidden: []int{16},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(m, cluster.Config{Nodes: 2, DIMMsPerNode: 4, MaxBatch: 64, CacheBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	srv, addr := startServer(t, netserve.ClusterBackend(c), netserve.Config{Registry: reg})
	cl := dialClient(t, addr, netclient.Config{Conns: 1, Deadline: deadline})

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
	got := allocsPerOp(t, clients, 200, func(i int) error {
		dst, err := cl.EmbedInto(dsts[i], feed[cursors[i]%len(feed)], batch)
		dsts[i] = dst
		cursors[i]++
		return err
	})
	if got != 0 {
		t.Fatalf("steady-state network round trip allocates %d times per op, want 0", got)
	}
	return srv
}

// TestNetRoundTripZeroAlloc pins the loopback round trip without deadlines.
func TestNetRoundTripZeroAlloc(t *testing.T) { pinRoundTrip(t, 0) }

// TestNetRoundTripDeadlineZeroAlloc pins the same path carrying an ample
// budget that never trips (250ms against sub-millisecond round trips):
// stamping the budget, the wire bytes, the server's expiry checks at
// admission and execution and the client's per-call timer allocate nothing.
func TestNetRoundTripDeadlineZeroAlloc(t *testing.T) {
	srv := pinRoundTrip(t, 250*time.Millisecond)
	if n := srv.Metrics().Expired; n != 0 {
		t.Fatalf("%d requests expired under a 250ms budget: the pin must never trip deadlines", n)
	}
}
