package remote_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/faultnet"
	"tensordimm/internal/netserve"
	"tensordimm/internal/recsys"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
	"tensordimm/internal/serve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// testMaxBatch is the per-request sample cap every test fleet is sized
// with — the router's MaxBatch and each replica's serve stack must agree.
const testMaxBatch = 16

// testModelCfg is the test fleet geometry: dim 64 = one stripe on a
// 4-DIMM node, 301 rows so row-wise shard boundaries are uneven.
func testModelCfg() recsys.Config {
	return recsys.Config{
		Name: "remote-test", Tables: 2, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 301, Hidden: []int{8},
	}
}

// buildModel builds the deterministic full model replicas are carved
// from; the same seed on a "restarted" replica reproduces its state.
func buildModel(t *testing.T) *recsys.Model {
	t.Helper()
	m, err := recsys.Build(testModelCfg(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// replicaProc is one in-process stand-in for a `tensorserve shard`
// process: a real serve stack behind a real TCP listener, with a fault
// injector between them.
type replicaProc struct {
	addr string
	in   *faultnet.Injector
	stop func()
}

// startReplica rebuilds the deterministic full model from its seed and
// deploys shard s of it (cluster.DeployShard — the same construction a
// real `tensorserve shard` process performs at boot), then serves it with
// role Replica behind a faultnet-wrapped listener. Building from the
// seed rather than sharing the test's golden model matters: a restarted
// replica must come back at update sequence 0 with pristine weights, so
// the router's full-log replay is what reproduces its state. addr ""
// picks a free port; a fixed addr is re-bound with retries, so a
// "restarted" replica can reclaim its old endpoint.
func startReplica(t *testing.T, strat cluster.Strategy, nodes, s int, addr string) *replicaProc {
	t.Helper()
	srv := deployReplica(t, strat, nodes, s)
	ns, err := netserve.New(netserve.ServerBackend(srv), netserve.Config{Role: wire.RoleReplica})
	if err != nil {
		t.Fatal(err)
	}
	listenAt := "127.0.0.1:0"
	if addr != "" {
		listenAt = addr
	}
	var l net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err = net.Listen("tcp", listenAt)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", listenAt, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	in := faultnet.NewInjector()
	go ns.Serve(faultnet.Wrap(l, in))
	var once sync.Once
	rp := &replicaProc{addr: l.Addr().String(), in: in}
	rp.stop = func() {
		once.Do(func() {
			ns.Close()
			srv.Close()
		})
	}
	t.Cleanup(rp.stop)
	return rp
}

// deployReplica builds shard s's serving stack the way a replica process
// does: the deterministic model, carved and deployed by cluster.DeployShard.
func deployReplica(t *testing.T, strat cluster.Strategy, nodes, s int) *serve.Server {
	t.Helper()
	srv, err := cluster.DeployShard(buildModel(t), cluster.Config{
		Nodes: nodes, Strategy: strat, DIMMsPerNode: 4, MaxBatch: testMaxBatch, Workers: 2,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// startFleet spawns `replicas` replicaProcs for each of `nodes` shards
// and returns them as [shard][replica] plus the address groups.
func startFleet(t *testing.T, strat cluster.Strategy, nodes, replicas int) ([][]*replicaProc, [][]string) {
	t.Helper()
	procs := make([][]*replicaProc, nodes)
	addrs := make([][]string, nodes)
	for s := 0; s < nodes; s++ {
		for r := 0; r < replicas; r++ {
			rp := startReplica(t, strat, nodes, s, "")
			procs[s] = append(procs[s], rp)
			addrs[s] = append(addrs[s], rp.addr)
		}
	}
	return procs, addrs
}

// newRouter dials a RemoteCluster over the address groups, wiring
// OnApplied to write updates through to m's golden tables so the golden
// embedding stays the bit-identity reference.
func newRouter(t *testing.T, m *recsys.Model, strat cluster.Strategy, addrs [][]string, tweak func(*remote.Config)) *remote.RemoteCluster {
	t.Helper()
	return newTunedRouter(t, m, strat, addrs, tweak, nil)
}

// newTunedRouter is newRouter with the router's fixed robustness tuning
// varied by tune (nil keeps it).
func newTunedRouter(t *testing.T, m *recsys.Model, strat cluster.Strategy, addrs [][]string,
	tweak func(*remote.Config), tune func(*remote.Tuning)) *remote.RemoteCluster {
	t.Helper()
	cfg := remote.Config{
		Model:        m.Cfg,
		Strategy:     strat,
		Shards:       addrs,
		MaxBatch:     testMaxBatch,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
		OnApplied: func(up runtime.TableUpdate) {
			runtime.AccumulateGolden(m.Embedding.Tables[up.Table], up)
		},
	}
	if tweak != nil {
		tweak(&cfg)
	}
	var rc *remote.RemoteCluster
	var err error
	if tune != nil {
		rc, err = remote.NewTuned(cfg, tune)
	} else {
		rc, err = remote.New(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// instrument registers rc's series on a fresh registry: the read surface
// of the counter assertions. A counter reads the router's atomics, so it
// counts what happened before registration too.
func instrument(rc *remote.RemoteCluster) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	rc.Instrument(reg)
	return reg
}

// counter reads tensordimm_remote_<name>_total from reg; a missing series
// fails the test.
func counter(t testing.TB, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	v, ok := reg.Snapshot().Counter("tensordimm_remote_" + name + "_total")
	if !ok {
		t.Fatalf("no series tensordimm_remote_%s_total", name)
	}
	return v
}

// gauge reads tensordimm_remote_<name> from reg as an integer (every
// remote gauge counts replicas, entries or bytes); a missing series fails
// the test.
func gauge(t testing.TB, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	v, ok := reg.Snapshot().Gauge("tensordimm_remote_" + name)
	if !ok {
		t.Fatalf("no series tensordimm_remote_%s", name)
	}
	return int64(v)
}

// randRows draws one request's per-table row indices.
func randRows(rng *rand.Rand, mc recsys.Config, batch int) [][]int {
	rows := make([][]int, mc.Tables)
	for t := range rows {
		rows[t] = make([]int, batch*mc.Reduction)
		for i := range rows[t] {
			rows[t][i] = rng.Intn(mc.TableRows)
		}
	}
	return rows
}

// randUpdate draws one single-table gradient update (with duplicate rows
// now and then, so accumulation order matters).
func randUpdate(rng *rand.Rand, mc recsys.Config) runtime.TableUpdate {
	n := 1 + rng.Intn(testMaxBatch*mc.Reduction-1)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(mc.TableRows)
	}
	grads := tensor.New(n, mc.EmbDim)
	g := grads.Data()
	for i := range g {
		g[i] = rng.Float32() - 0.5
	}
	return runtime.TableUpdate{Table: rng.Intn(mc.Tables), Rows: rows, Grads: grads}
}

// checkGolden asserts one remote read is bit-identical to the golden
// embedding forward.
func checkGolden(t *testing.T, m *recsys.Model, rc *remote.RemoteCluster, rows [][]int, batch int) {
	t.Helper()
	got, err := rc.EmbedInto(nil, rows, batch)
	if err != nil {
		t.Fatalf("remote embed: %v", err)
	}
	want, err := m.Embedding.Forward(rows, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Data() {
		if got[i] != w {
			t.Fatalf("value %d: remote %v != golden %v", i, got[i], w)
		}
	}
}

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBitIdentity routes reads and sequenced updates through
// single-replica fleets under both strategies and asserts bit-identity
// to the golden model before and after the updates.
func TestBitIdentity(t *testing.T) {
	for _, strat := range []cluster.Strategy{cluster.TableWise, cluster.RowWise} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			m := buildModel(t)
			_, addrs := startFleet(t, strat, 2, 1)
			rc := newRouter(t, m, strat, addrs, nil)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 10; i++ {
				batch := 1 + rng.Intn(testMaxBatch)
				checkGolden(t, m, rc, randRows(rng, m.Cfg, batch), batch)
			}
			for i := 0; i < 8; i++ {
				if err := rc.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg), randUpdate(rng, m.Cfg)}); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
			}
			for i := 0; i < 10; i++ {
				batch := 1 + rng.Intn(testMaxBatch)
				checkGolden(t, m, rc, randRows(rng, m.Cfg, batch), batch)
			}
			reg := instrument(rc)
			updates, reqs, up := counter(t, reg, "updates"), counter(t, reg, "requests"), gauge(t, reg, "replicas_up")
			if updates != 8 || reqs != 20 || up != 2 {
				t.Fatalf("metrics: %d updates, %d requests, %d replicas up", updates, reqs, up)
			}
		})
	}
}

// TestFailoverZeroLoss runs concurrent mixed traffic over a 2-replica-
// per-shard fleet, hard-resets one replica (RST, the killed-process
// simulation) mid-stream, and asserts not one request failed and the
// final state is bit-identical to the golden model. The downed replica
// is then re-admitted once its faults clear.
func TestFailoverZeroLoss(t *testing.T) {
	m := buildModel(t)
	procs, addrs := startFleet(t, cluster.TableWise, 2, 2)
	rc := newRouter(t, m, cluster.TableWise, addrs, nil)

	const workers, iters = 4, 60
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	kill := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var dst []float32
			for i := 0; i < iters; i++ {
				if i == iters/2 && w == 0 {
					close(kill)
				}
				if w == workers-1 && i%5 == 0 {
					if err := rc.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
						errCh <- fmt.Errorf("worker %d update %d: %w", w, i, err)
						return
					}
					continue
				}
				batch := 1 + rng.Intn(testMaxBatch)
				var err error
				dst, err = rc.EmbedInto(dst, randRows(rng, m.Cfg, batch), batch)
				if err != nil {
					errCh <- fmt.Errorf("worker %d read %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	victim := procs[0][1]
	go func() {
		<-kill
		victim.in.Drop(true) // RSTs every live conn and refuses new ones
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiesced: the surviving fleet must match the golden model that
	// OnApplied kept in lockstep.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, rc, randRows(rng, m.Cfg, batch), batch)
	}

	// Clear the fault: the reconnect supervisor plus catch-up replay
	// re-admit the victim.
	victim.in.Drop(false)
	waitCond(t, 5*time.Second, "victim re-admission", func() bool {
		return rc.Metrics().ReplicasUp == 4
	})
	if n := counter(t, instrument(rc), "resyncs"); n == 0 {
		t.Fatalf("victim rejoined without a catch-up replay: %d resyncs", n)
	}
}

// TestRestartCatchUpReplay stops a replica outright, applies updates it
// misses, restarts it at the same address (a fresh process rebuilds the
// deterministic shard model at sequence 0), and then kills the OTHER
// replica — so reads can only be served by the restarted one, proving the
// full-log replay reproduced the missed state bit-identically.
func TestRestartCatchUpReplay(t *testing.T) {
	m := buildModel(t)
	a := startReplica(t, cluster.TableWise, 1, 0, "")
	b := startReplica(t, cluster.TableWise, 1, 0, "")
	rc := newRouter(t, m, cluster.TableWise, [][]string{{a.addr, b.addr}}, nil)
	rng := rand.New(rand.NewSource(11))

	if err := rc.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
		t.Fatal(err)
	}
	b.stop()
	waitCond(t, 5*time.Second, "b marked down", func() bool {
		return rc.Metrics().ReplicasUp == 1
	})
	for i := 0; i < 3; i++ {
		if err := rc.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
			t.Fatalf("update while b down: %v", err)
		}
	}

	b2 := startReplica(t, cluster.TableWise, 1, 0, b.addr)
	_ = b2
	waitCond(t, 5*time.Second, "b replayed and re-admitted", func() bool {
		return rc.Metrics().ReplicasUp == 2
	})
	reg := instrument(rc)
	if resyncs, replayed := counter(t, reg, "resyncs"), counter(t, reg, "replayed"); resyncs == 0 || replayed < 4 {
		t.Fatalf("expected a full-log replay, got %d resyncs, %d replayed", resyncs, replayed)
	}

	a.stop()
	waitCond(t, 5*time.Second, "a marked down", func() bool {
		return rc.Metrics().ReplicasUp == 1
	})
	for i := 0; i < 5; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, rc, randRows(rng, m.Cfg, batch), batch)
	}
}

// TestUnavailableFailFast asserts that reads and updates against a shard
// whose whole replica group is down fail with the typed *Unavailable,
// not a hang.
func TestUnavailableFailFast(t *testing.T) {
	m := buildModel(t)
	a := startReplica(t, cluster.TableWise, 1, 0, "")
	rc := newRouter(t, m, cluster.TableWise, [][]string{{a.addr}}, nil)
	a.stop()
	rng := rand.New(rand.NewSource(13))
	waitCond(t, 5*time.Second, "replica marked down", func() bool {
		return rc.Metrics().ReplicasUp == 0
	})

	start := time.Now()
	_, err := rc.EmbedInto(nil, randRows(rng, m.Cfg, 2), 2)
	var un *remote.Unavailable
	if !errors.As(err, &un) || un.Shard != 0 {
		t.Fatalf("read error = %v, want *Unavailable for shard 0", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("fail-fast read took %v", el)
	}
	err = rc.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)})
	if !errors.As(err, &un) {
		t.Fatalf("update error = %v, want *Unavailable", err)
	}
	if counter(t, instrument(rc), "unavailable") == 0 {
		t.Fatal("Unavailable counter did not move")
	}
}

// TestHedgedReads slows one replica far past the hedge delay and asserts
// the hedged second attempt fires and wins, with every result still
// bit-identical.
func TestHedgedReads(t *testing.T) {
	m := buildModel(t)
	a := startReplica(t, cluster.TableWise, 1, 0, "")
	b := startReplica(t, cluster.TableWise, 1, 0, "")
	rc := newTunedRouter(t, m, cluster.TableWise, [][]string{{a.addr, b.addr}}, nil, func(tu *remote.Tuning) {
		tu.HedgeAfter = 200 * time.Microsecond
	})
	a.in.SetReadDelay(40 * time.Millisecond)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 12; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, rc, randRows(rng, m.Cfg, batch), batch)
	}
	a.in.SetReadDelay(0)
	mt := rc.Metrics()
	if mt.Hedges == 0 || mt.HedgeWins == 0 {
		t.Fatalf("hedging never fired: %+v", mt)
	}
}

// TestNewValidation exercises the fleet-shape checks at New: geometry
// mismatches, addresses on empty shards, and replicas that already
// applied updates are all rejected.
func TestNewValidation(t *testing.T) {
	m := buildModel(t)
	// A replica carved for a 2-shard fleet announces the wrong geometry
	// to a 1-shard router.
	wrong := startReplica(t, cluster.TableWise, 2, 0, "")
	_, err := remote.New(remote.Config{
		Model: m.Cfg, Strategy: cluster.TableWise, MaxBatch: testMaxBatch,
		Shards: [][]string{{wrong.addr}},
	})
	if err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	// TableWise over 3 shards with 2 tables leaves shard 2 empty:
	// addresses there are a config error...
	_, err = remote.New(remote.Config{
		Model: m.Cfg, Strategy: cluster.TableWise, MaxBatch: testMaxBatch,
		Shards: [][]string{{wrong.addr}, {wrong.addr}, {wrong.addr}},
	})
	if err == nil {
		t.Fatal("replica addresses on an empty shard accepted")
	}
	// ...but an empty list for an empty shard serves fine.
	s0 := startReplica(t, cluster.TableWise, 3, 0, "")
	s1 := startReplica(t, cluster.TableWise, 3, 1, "")
	rc, err := remote.New(remote.Config{
		Model: m.Cfg, Strategy: cluster.TableWise, MaxBatch: testMaxBatch,
		Shards: [][]string{{s0.addr}, {s1.addr}, {}},
	})
	if err != nil {
		t.Fatalf("empty shard with empty address list rejected: %v", err)
	}
	rng := rand.New(rand.NewSource(23))
	if _, err := rc.EmbedInto(nil, randRows(rng, m.Cfg, 3), 3); err != nil {
		t.Fatalf("read over a fleet with an empty shard: %v", err)
	}
	rc.Close()
	// A replica that already absorbed updates cannot join a new router,
	// whose empty log could never have produced that state.
	lone := startReplica(t, cluster.TableWise, 1, 0, "")
	pre, err := remote.New(remote.Config{
		Model: m.Cfg, Strategy: cluster.TableWise, MaxBatch: testMaxBatch,
		Shards: [][]string{{lone.addr}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
		t.Fatal(err)
	}
	pre.Close()
	_, err = remote.New(remote.Config{
		Model: m.Cfg, Strategy: cluster.TableWise, MaxBatch: testMaxBatch,
		Shards: [][]string{{lone.addr}},
	})
	if err == nil {
		t.Fatal("replica with a non-zero update sequence accepted by a fresh router")
	}
}
