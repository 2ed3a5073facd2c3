//go:build !race

// The steady-state allocation pin is compiled out entirely under the race
// detector, whose goroutine and channel instrumentation heap-allocates and
// would make the pin meaningless.

package remote_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/remote"
)

// TestSteadyStateZeroAlloc pins the router's read path to zero heap
// allocations per request once pools are warm — the same discipline as
// the in-process cluster and the netclient. The second fleet arms what a
// shard sub-read can arm: a hedge (two replicas per shard) and a deadline.
// The front case drives a fleet behind a network front end to end:
// netclient → netserve → RemoteCluster over a 2-shard x 2-replica fleet,
// where the front's reader sends each read and an executor awaits it.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, fleet := range []struct {
		name     string
		replicas int
		deadline time.Duration
	}{
		{"1-replica", 1, 0},
		{"2-replica-deadline", 2, time.Minute},
	} {
		t.Run(fleet.name, func(t *testing.T) {
			m := buildModel(t)
			_, addrs := startFleet(t, cluster.TableWise, 2, fleet.replicas)
			rc := newRouter(t, m, cluster.TableWise, addrs, func(cfg *remote.Config) {
				cfg.Deadline = fleet.deadline
			})
			rng := rand.New(rand.NewSource(19))
			rows := randRows(rng, m.Cfg, testMaxBatch)
			dst := make([]float32, 0, testMaxBatch*m.Cfg.Tables*m.Cfg.EmbDim)
			var err error
			for i := 0; i < 32; i++ { // warm every pool on every worker
				if dst, err = rc.EmbedInto(dst, rows, testMaxBatch); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				dst, err = rc.EmbedInto(dst, rows, testMaxBatch)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state EmbedInto allocates %.1f times per op, want 0", allocs)
			}
		})
	}
	t.Run("front", func(t *testing.T) {
		const clients = 64
		m := buildModel(t)
		_, addrs := startFleet(t, cluster.TableWise, 2, 2)
		_, cl := startFront(t, newRouter(t, m, cluster.TableWise, addrs, nil))
		rng := rand.New(rand.NewSource(23))
		feed := make([][][]int, 32)
		for i := range feed {
			feed[i] = randRows(rng, m.Cfg, 4)
		}
		dsts := make([][]float32, clients)
		cursors := make([]int, clients)
		got := allocsPerOp(t, clients, 200, func(i int) error {
			dst, err := cl.EmbedInto(dsts[i], feed[cursors[i]%len(feed)], 4)
			dsts[i] = dst
			cursors[i]++
			return err
		})
		if got != 0 {
			t.Fatalf("steady-state read through the front allocates %d times per op, want 0", got)
		}
	})
}

// allocsPerOp runs clients goroutines × ops calls of op — once to grow
// every pool to the concurrency it will see, then measured — and returns
// the process's malloc count over the measured run integer-divided by the
// number of calls: testing.AllocsPerRun's arithmetic, as netserve's
// round-trip pin applies it, so a network path's contract is "amortized
// 0" at many requests in flight, where frame coalescing runs.
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
