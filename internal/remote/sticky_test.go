package remote_test

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/recsys"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
)

// newStickyRouter attaches a read-only (sticky-shard) router to an
// already-written fleet: no OnApplied wiring — the writer owns the golden
// reference — and ReadOnly set.
func newStickyRouter(t *testing.T, m *recsys.Model, strat cluster.Strategy, addrs [][]string) *remote.RemoteCluster {
	t.Helper()
	rc, err := remote.New(remote.Config{
		Model:        m.Cfg,
		Strategy:     strat,
		Shards:       addrs,
		MaxBatch:     testMaxBatch,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
		ReadOnly:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// TestStickyAttachAfterUpdates is the sticky-shard routing contract: a
// read-only router attaches to a fleet whose replicas are mid-history
// (nonzero update sequence — a writing router would refuse them), reads
// bit-identically to the golden model the writer maintained, and refuses
// updates with the typed ErrReadOnly.
func TestStickyAttachAfterUpdates(t *testing.T) {
	for _, strat := range []cluster.Strategy{cluster.TableWise, cluster.RowWise} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			m := buildModel(t)
			_, addrs := startFleet(t, strat, 2, 2)
			writer := newRouter(t, m, strat, addrs, nil)

			rng := rand.New(rand.NewSource(31))
			for i := 0; i < 8; i++ {
				if err := writer.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
					t.Fatalf("writer update %d: %v", i, err)
				}
			}

			// The replicas now announce nonzero update sequences; a sticky
			// attach must accept them as-is.
			sticky := newStickyRouter(t, m, strat, addrs)
			for i := 0; i < 5; i++ {
				batch := 1 + rng.Intn(testMaxBatch)
				checkGolden(t, m, sticky, randRows(rng, m.Cfg, batch), batch)
			}

			err := sticky.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)})
			if !errors.Is(err, remote.ErrReadOnly) {
				t.Fatalf("sticky ApplyUpdates returned %v, want ErrReadOnly", err)
			}

			// Updates keep flowing through the writer; the sticky reader
			// observes them once the fan-out lands.
			if err := writer.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
				t.Fatalf("writer update after attach: %v", err)
			}
			for i := 0; i < 3; i++ {
				batch := 1 + rng.Intn(testMaxBatch)
				checkGolden(t, m, sticky, randRows(rng, m.Cfg, batch), batch)
			}
		})
	}
}

// TestStickyFailoverAndReadmit drops one replica under a sticky router:
// reads fail over to the survivor with zero loss, and when the fault
// clears the replica is re-admitted without any catch-up replay (a
// read-only router holds no log — freshness is the writer's job).
func TestStickyFailoverAndReadmit(t *testing.T) {
	m := buildModel(t)
	procs, addrs := startFleet(t, cluster.TableWise, 1, 2)
	writer := newRouter(t, m, cluster.TableWise, addrs, nil)
	rng := rand.New(rand.NewSource(77))
	if err := writer.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
		t.Fatal(err)
	}
	// The writer must not see the victim's cut as its own fault injection:
	// close it before dropping connections.
	writer.Close()

	sticky := newStickyRouter(t, m, cluster.TableWise, addrs)
	victim := procs[0][1]
	victim.in.Drop(true)
	for i := 0; i < 20; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, sticky, randRows(rng, m.Cfg, batch), batch)
	}

	victim.in.Drop(false)
	waitCond(t, 5*time.Second, "sticky re-admission", func() bool {
		return sticky.Metrics().ReplicasUp == 2
	})
	if n := counter(t, instrument(sticky), "replayed"); n != 0 {
		t.Fatalf("sticky re-admission replayed %d log entries; a read-only router holds no log", n)
	}
	for i := 0; i < 5; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, sticky, randRows(rng, m.Cfg, batch), batch)
	}
}
