package remote_test

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/persist"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// singleRowUpdate draws one 1-row gradient update — the smallest log
// entry, so the soak's entry count equals its update count.
func singleRowUpdate(rng *rand.Rand, tables, rows, dim int) runtime.TableUpdate {
	grads := tensor.New(1, dim)
	g := grads.Data()
	for i := range g {
		g[i] = rng.Float32() - 0.5
	}
	return runtime.TableUpdate{Table: rng.Intn(tables), Rows: []int{rng.Intn(rows)}, Grads: grads}
}

// TestWALBoundedSoak is the acceptance soak: 10k single-row updates
// (1k under -short) through a router with a small snapshot interval, in
// both durable and volatile modes, pinning that the retained log entries
// and the on-disk WAL bytes stay bounded by the interval — the update log
// can no longer grow without bound. The quiesced fleet must still read
// back bit-identical to the golden model.
func TestWALBoundedSoak(t *testing.T) {
	const snapEvery = 16
	iters := 10000
	if testing.Short() {
		iters = 1000
	}
	for _, mode := range []string{"durable", "volatile"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			dir := ""
			if mode == "durable" {
				dir = t.TempDir()
			}
			m := buildModel(t)
			_, addrs := startFleet(t, cluster.TableWise, 1, 1)
			rc := newRouter(t, m, cluster.TableWise, addrs, func(cfg *remote.Config) {
				cfg.DataDir = dir
				cfg.SnapshotEvery = snapEvery
			})
			reg := instrument(rc)
			// One shard holds both tables; every single-row update is
			// exactly one log entry.
			rng := rand.New(rand.NewSource(29))
			var maxEntries, maxWAL uint64
			for i := 0; i < iters; i++ {
				up := singleRowUpdate(rng, m.Cfg.Tables, m.Cfg.TableRows, m.Cfg.EmbDim)
				if err := rc.ApplyUpdates([]runtime.TableUpdate{up}); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
				if i%25 != 0 && i != iters-1 {
					continue
				}
				mt := rc.Metrics()
				if n := uint64(gauge(t, reg, "log_entries")); n > maxEntries {
					maxEntries = n
				}
				if uint64(mt.WALBytes) > maxWAL {
					maxWAL = uint64(mt.WALBytes)
				}
				if mode == "volatile" && mt.WALBytes != 0 {
					t.Fatalf("volatile router reports %d WAL bytes", mt.WALBytes)
				}
			}
			if maxEntries > snapEvery {
				t.Fatalf("retained log grew to %d entries, snapshot interval is %d", maxEntries, snapEvery)
			}
			// A 1-row record is the crc + a one-update SYNC frame: well
			// under 512 B at dim 64, so the WAL can never pass this
			// ceiling without the trim being broken.
			if ceiling := uint64(snapEvery) * 512; maxWAL > ceiling {
				t.Fatalf("WAL grew to %d bytes, ceiling for %d retained 1-row records is %d", maxWAL, snapEvery, ceiling)
			}
			mt := rc.Metrics()
			if mt.Snapshots == 0 {
				t.Fatalf("no snapshots after %d updates at interval %d: %+v", iters, snapEvery, mt)
			}
			for i := 0; i < 3; i++ {
				batch := 1 + rng.Intn(testMaxBatch)
				checkGolden(t, m, rc, randRows(rng, m.Cfg, batch), batch)
			}
		})
	}
}

// tearFinalRecord appends a deliberately torn WAL record — the first
// bytes of what would have been the append at sequence head — to shard
// s's log under dir, reproducing on demand the artifact a SIGKILL leaves
// when it lands mid-write. Recovery must truncate exactly this tail.
func tearFinalRecord(t *testing.T, dir string, s int, head uint64, dim int) {
	t.Helper()
	rec := []byte{0, 0, 0, 0}
	rec = wire.AppendSync(rec, 0, head, []wire.Update{
		{Table: 0, Rows: []int{0, 1}, Grads: make([]float32, 2*dim)},
	})
	binary.LittleEndian.PutUint32(rec, crc32.Checksum(rec[8:], crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(filepath.Join(persist.ShardDir(dir, s), "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(rec[:len(rec)-7]); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRestartBitIdentical is the durability torture script, run
// under both sharding strategies (and under -race in CI): a durable
// router absorbs updates across several snapshot intervals, the whole
// deployment "crashes" — router gone without any flush beyond its normal
// appends, every replica process dead, and a torn half-record on each
// shard's WAL exactly as a SIGKILL mid-append leaves it — and a new
// router over FRESH replicas (sequence 0, pristine weights) boots from
// the same -data-dir. Recovery must truncate the torn tails, reseat the
// replicas from the snapshots, replay the tails, and serve reads
// bit-identical to the golden model the first run maintained.
func TestCrashRestartBitIdentical(t *testing.T) {
	for _, strat := range []cluster.Strategy{cluster.TableWise, cluster.RowWise} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			const nodes, snapEvery = 2, 8
			dir := t.TempDir()
			m := buildModel(t)
			procs, addrs := startFleet(t, strat, nodes, 1)
			rc := newRouter(t, m, strat, addrs, func(cfg *remote.Config) {
				cfg.DataDir = dir
				cfg.SnapshotEvery = snapEvery
			})
			rng := rand.New(rand.NewSource(31))
			for i := 0; i < 60; i++ {
				if err := rc.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
			}
			preCrash := rc.Metrics()
			if preCrash.Snapshots == 0 {
				t.Fatalf("no snapshots before the crash: %+v", preCrash)
			}
			rc.Close()
			for _, group := range procs {
				for _, p := range group {
					p.stop()
				}
			}

			// Plant the SIGKILL artifact: a torn half-record at each
			// shard's log head.
			place := cluster.NewPlacement(strat, nodes, m.Cfg.Tables, m.Cfg.TableRows)
			for s := 0; s < nodes; s++ {
				log, err := persist.Open(persist.Config{
					Dir: dir, Shard: s, Dim: m.Cfg.EmbDim,
					LocalRows:       place.LocalRows(s),
					MaxRowsPerEntry: place.MaxSub(s, testMaxBatch, m.Cfg.Reduction),
				})
				if err != nil {
					t.Fatalf("shard %d: reading log head: %v", s, err)
				}
				head := log.Head()
				if err := log.Close(); err != nil {
					t.Fatal(err)
				}
				if head == 0 {
					t.Fatalf("shard %d: empty log after 60 updates", s)
				}
				tearFinalRecord(t, dir, s, head, m.Cfg.EmbDim)
			}

			// Restart over fresh replicas: new processes at sequence 0
			// with pristine seed-built weights. Only the durable state can
			// reproduce the pre-crash model.
			_, addrs2 := startFleet(t, strat, nodes, 1)
			rc2 := newRouter(t, m, strat, addrs2, func(cfg *remote.Config) {
				cfg.DataDir = dir
				cfg.SnapshotEvery = snapEvery
			})
			mt := rc2.Metrics()
			if mt.ReplicasUp != nodes {
				t.Fatalf("%d replicas up after restart, want %d", mt.ReplicasUp, nodes)
			}
			if n := counter(t, instrument(rc2), "restores"); n != uint64(nodes) {
				t.Fatalf("%d snapshot restores after restart, want %d (fresh replicas sit below the snapshot horizon)", n, nodes)
			}
			for i := 0; i < 10; i++ {
				batch := 1 + rng.Intn(testMaxBatch)
				checkGolden(t, m, rc2, randRows(rng, m.Cfg, batch), batch)
			}
			// The recovered history must also keep absorbing new updates.
			for i := 0; i < 5; i++ {
				if err := rc2.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
					t.Fatalf("post-restart update %d: %v", i, err)
				}
			}
			checkGolden(t, m, rc2, randRows(rng, m.Cfg, 4), 4)
		})
	}
}

// TestRouterRestartSameFleet pins the other half of the restart matrix:
// the router dies and comes back while the REPLICAS keep their state. The
// handshake must accept replicas at or behind the recovered log head and
// replay only what each one misses.
func TestRouterRestartSameFleet(t *testing.T) {
	dir := t.TempDir()
	m := buildModel(t)
	_, addrs := startFleet(t, cluster.TableWise, 2, 1)
	tweak := func(cfg *remote.Config) {
		cfg.DataDir = dir
		cfg.SnapshotEvery = 1 << 20 // no snapshots: restart replays the WAL alone
	}
	rc := newRouter(t, m, cluster.TableWise, addrs, tweak)
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 12; i++ {
		if err := rc.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
			t.Fatal(err)
		}
	}
	rc.Close()

	rc2 := newRouter(t, m, cluster.TableWise, addrs, tweak)
	if mt := rc2.Metrics(); mt.ReplicasUp != 2 {
		t.Fatalf("%d replicas up after router restart, want 2", mt.ReplicasUp)
	}
	for i := 0; i < 5; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, rc2, randRows(rng, m.Cfg, batch), batch)
	}
	if err := rc2.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, m, rc2, randRows(rng, m.Cfg, 3), 3)
}

// TestRecycledSnapshotTableRestoresBitIdentical: from the third snapshot on
// a shard scrapes into the table its previous install retired instead of
// allocating one. After six snapshots a replica restarts from scratch —
// below the trim horizon, so it is reseated from the in-memory snapshot, a
// recycled table by now — and must then serve, alone, reads bit-identical
// to the golden model.
func TestRecycledSnapshotTableRestoresBitIdentical(t *testing.T) {
	const snapEvery = 4
	m := buildModel(t)
	a := startReplica(t, cluster.TableWise, 1, 0, "")
	b := startReplica(t, cluster.TableWise, 1, 0, "")
	rc := newRouter(t, m, cluster.TableWise, [][]string{{a.addr, b.addr}}, func(cfg *remote.Config) {
		cfg.SnapshotEvery = snapEvery
	})
	reg := instrument(rc)
	rng := rand.New(rand.NewSource(31))
	apply := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			up := singleRowUpdate(rng, m.Cfg.Tables, m.Cfg.TableRows, m.Cfg.EmbDim)
			if err := rc.ApplyUpdates([]runtime.TableUpdate{up}); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(5 * snapEvery)
	b.stop()
	waitCond(t, 5*time.Second, "b marked down", func() bool { return rc.Metrics().ReplicasUp == 1 })
	apply(snapEvery + 2)
	if got := rc.Metrics().Snapshots; got != 6 {
		t.Fatalf("%d snapshots after %d updates at interval %d, want 6", got, 6*snapEvery+2, snapEvery)
	}

	startReplica(t, cluster.TableWise, 1, 0, b.addr)
	waitCond(t, 5*time.Second, "b restored and re-admitted", func() bool { return rc.Metrics().ReplicasUp == 2 })
	if restores, replayed := counter(t, reg, "restores"), counter(t, reg, "replayed"); restores != 1 || replayed != 2 {
		t.Fatalf("restores %d, replayed %d, want a snapshot reseat plus the 2-entry tail", restores, replayed)
	}
	a.stop()
	waitCond(t, 5*time.Second, "a marked down", func() bool { return rc.Metrics().ReplicasUp == 1 })
	for i := 0; i < 5; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, rc, randRows(rng, m.Cfg, batch), batch)
	}
}
