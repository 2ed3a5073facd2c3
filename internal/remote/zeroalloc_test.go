//go:build !race

// The steady-state allocation pin is compiled out entirely under the race
// detector, whose goroutine and channel instrumentation heap-allocates and
// would make the pin meaningless.

package remote_test

import (
	"math/rand"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/remote"
)

// TestSteadyStateZeroAlloc pins the router's read path to zero heap
// allocations per request once pools are warm — the same discipline as
// the in-process cluster and the netclient. The second fleet arms what a
// shard sub-read can arm: a hedge (two replicas per shard) and a deadline.
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
}
