// Package chaos is a seeded chaos-soak harness for the replicated
// network serving stack: it boots a full in-process fleet (real serve
// stacks behind real TCP listeners), derives a deterministic fault
// schedule from a seed — composing the faultnet primitives (read delays,
// mid-frame truncation, hard resets) with process-level kill/restart and
// deadline-starving stalls — and drives mixed read/update traffic
// through a writing router and a deadline-bounded read-only router while
// the schedule executes.
//
// Three invariants are asserted continuously:
//
//  1. Bit-identity: at every quiescent point (faults cleared, fleet
//     re-admitted) and after the final kill-everything restart, reads are
//     bit-identical to a golden model maintained through OnApplied.
//  2. Zero lost acknowledged writes: the final phase kills every replica,
//     restarts all of them cold (update sequence 0), lets the router
//     re-drive them from its durable log (snapshot reseat + WAL-tail
//     replay), and re-checks bit-identity — an acknowledged update that
//     the log lost would surface here.
//  3. Deadline honesty: every deadline-bounded read resolves within
//     budget+epsilon or fails with a typed error (*remote.DeadlineExceeded,
//     *remote.Unavailable, *netclient.DeadlineError, *netclient.ServerError)
//     — never an untyped failure, never an unbounded stall.
//
// Replica 0 of every shard is never faulted, so updates can always reach
// at least one replica per shard: an acknowledged update is exactly one
// that fired OnApplied, which keeps the golden model a sound reference.
// The same seed reproduces the same fault schedule, so a soak failure is
// replayable from its report line alone. Both the chaos test suite and
// `tensorserve chaos SEED` drive this package through Run.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/faultnet"
	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/recsys"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// Config parameterizes one soak. The zero value of every field except
// Seed selects a documented default. The fleet itself is fixed: soakShards
// shards of soakReplicas replicas, a soakDeadline read budget, and a
// temporary directory for the WAL.
type Config struct {
	// Seed derives the fault schedule, the model weights, and the traffic
	// mix. The same seed reproduces the same soak.
	Seed int64
	// Duration is the summed fault-phase time; each ~1s fault round is
	// followed by a quiescent verification phase that does not count
	// toward it. Zero defaults to 8s.
	Duration time.Duration
	// Log, when set, receives one line per round and phase.
	Log func(format string, args ...any)
	// Registry, when set, receives the soak's live counters (updates,
	// reads, skew reads, typed and deadline errors, golden checks,
	// invariant violations) plus both routers' full series, so a long soak
	// is observable through the admin endpoint while it runs. Nil selects
	// a private registry; the soak reads its routers' numbers there.
	Registry *telemetry.Registry
}

// Report summarizes one soak.
type Report struct {
	Seed                               int64
	Rounds                             int
	Faults                             int
	Updates, Reads, SkewReads          uint64
	TypedErrors, DeadlineErrors        uint64
	GoldenChecks                       uint64
	Resyncs, Replayed, Restores        uint64
	BreakerTrips, Failovers, HedgeWins uint64
}

// String renders the report as one line.
func (r Report) String() string {
	return fmt.Sprintf(
		"chaos: seed %d, %d rounds, %d faults; %d updates, %d reads, %d skew reads (%d typed errors, %d deadline); %d golden checks; %d resyncs (%d replayed, %d restored), %d breaker trips, %d failovers, %d hedge wins",
		r.Seed, r.Rounds, r.Faults, r.Updates, r.Reads, r.SkewReads,
		r.TypedErrors, r.DeadlineErrors, r.GoldenChecks,
		r.Resyncs, r.Replayed, r.Restores, r.BreakerTrips, r.Failovers, r.HedgeWins)
}

// soak geometry: small enough to boot a multi-replica fleet quickly
// under -race, uneven enough (odd rows) to cross shard boundaries.
const (
	soakMaxBatch = 8
	soakRound    = time.Second
	// soakShards shard processes of soakReplicas replicas each. Replica 0
	// of each shard is never faulted, so faults need a second replica.
	soakShards   = 2
	soakReplicas = 2
	// soakDeadline is the read-only router's end-to-end budget — the one
	// invariant 3 is asserted against.
	soakDeadline = 25 * time.Millisecond
	// epsilon is the grace over soakDeadline a deadline-bounded read may
	// use to resolve (scheduler noise, reap overhead) before the soak counts
	// it a violation.
	epsilon = time.Second
)

func soakModelCfg(shards int) recsys.Config {
	return recsys.Config{
		Name: "chaos-soak", Tables: shards, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 203, Hidden: []int{8},
	}
}

// proc is one in-process replica "process": a serve stack behind a real
// listener with a fault injector in front.
type proc struct {
	addr string
	in   *faultnet.Injector
	stop func()
	dead bool
}

// soak is one running chaos soak.
type soak struct {
	cfg    Config
	mc     recsys.Config
	golden *recsys.Model
	writer *remote.RemoteCluster
	skew   *remote.RemoteCluster
	reg    *telemetry.Registry // both routers' series: where the soak reads their numbers

	// pmu guards procs: the schedule applier kills and restarts entries
	// while the quiescent phase heals stragglers.
	pmu   sync.Mutex
	procs [][]*proc

	updates, reads, skewReads atomic.Uint64
	typedErrs, deadlineErrs   atomic.Uint64
	goldenChecks              atomic.Uint64
	violationCount            atomic.Uint64
	vmu                       sync.Mutex
	violations                []string
}

// vio records one invariant violation.
func (c *soak) vio(format string, args ...any) {
	c.violationCount.Add(1)
	c.vmu.Lock()
	if len(c.violations) < 32 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
	c.vmu.Unlock()
}

// instrument registers the soak's live counters on reg and instruments
// both routers (labeled by role).
func (c *soak) instrument(reg *telemetry.Registry) {
	c.reg = reg
	reg.Counter("tensordimm_chaos_updates_total", "update batches driven through the writing router", c.updates.Load)
	reg.Counter("tensordimm_chaos_reads_total", "reads driven through the writing router", c.reads.Load)
	reg.Counter("tensordimm_chaos_skew_reads_total", "deadline-bounded reads driven through the skew router", c.skewReads.Load)
	reg.Counter("tensordimm_chaos_typed_errors_total", "reads failed with a typed error", c.typedErrs.Load)
	reg.Counter("tensordimm_chaos_deadline_errors_total", "reads failed with DeadlineExceeded", c.deadlineErrs.Load)
	reg.Counter("tensordimm_chaos_golden_checks_total", "bit-identity checks against the golden model", c.goldenChecks.Load)
	reg.Counter("tensordimm_chaos_violations_total", "invariant violations detected", c.violationCount.Load)
	c.writer.Instrument(reg, telemetry.L("router", "writer"))
	c.skew.Instrument(reg, telemetry.L("router", "skew"))
}

// series reads the named router's tensordimm_remote_<name> counters and
// gauges (a counter's name ends in _total) from one registry snapshot.
func (c *soak) series(router string) func(name string) uint64 {
	snap, l := c.reg.Snapshot(), telemetry.L("router", router)
	return func(name string) uint64 {
		if v, ok := snap.Counter("tensordimm_remote_"+name, l); ok {
			return v
		}
		v, _ := snap.Gauge("tensordimm_remote_"+name, l)
		return uint64(v)
	}
}

// logf forwards to the configured logger.
func (c *soak) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log(format, args...)
	}
}

// withDefaults fills the zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.Duration == 0 {
		cfg.Duration = 8 * time.Second
	}
	return cfg
}

// Run executes one soak and returns its report; the error is non-nil
// when any invariant was violated or the fleet could not be driven.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	// The durability invariant exercises a real on-disk WAL.
	dir, err := os.MkdirTemp("", "chaos-soak-*")
	if err != nil {
		return Report{}, fmt.Errorf("chaos: %w", err)
	}
	defer os.RemoveAll(dir)

	c := &soak{cfg: cfg, mc: soakModelCfg(soakShards)}
	golden, err := recsys.Build(c.mc, cfg.Seed)
	if err != nil {
		return Report{}, fmt.Errorf("chaos: %w", err)
	}
	c.golden = golden

	// Fleet: soakShards x soakReplicas real serve stacks.
	c.procs = make([][]*proc, soakShards)
	addrs := make([][]string, soakShards)
	defer c.stopAll()
	for s := 0; s < soakShards; s++ {
		for r := 0; r < soakReplicas; r++ {
			p, err := c.startReplica(s, "")
			if err != nil {
				return Report{}, err
			}
			c.procs[s] = append(c.procs[s], p)
			addrs[s] = append(addrs[s], p.addr)
		}
	}

	// The writing router owns the durable log and keeps the golden model
	// in lockstep through OnApplied. A small snapshot interval makes the
	// soak cross the snapshot/restore path, not just WAL replay.
	c.writer, err = remote.New(remote.Config{
		Model: c.mc, Strategy: cluster.TableWise, Shards: addrs,
		MaxBatch: soakMaxBatch, DataDir: dir, SnapshotEvery: 64,
		ReconnectMin: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
		OnApplied: func(up runtime.TableUpdate) {
			runtime.AccumulateGolden(c.golden.Embedding.Tables[up.Table], up)
		},
	})
	if err != nil {
		return Report{}, fmt.Errorf("chaos: writer router: %w", err)
	}
	defer c.writer.Close()
	if err := c.writer.WaitReady(10 * time.Second); err != nil {
		return Report{}, fmt.Errorf("chaos: %w", err)
	}
	// The skew router is the deadline-bounded read path invariant 3 is
	// asserted against: sticky read-only routing with a tight end-to-end
	// budget, against the same fleet the schedule is abusing.
	c.skew, err = remote.New(remote.Config{
		Model: c.mc, Strategy: cluster.TableWise, Shards: addrs,
		MaxBatch: soakMaxBatch, ReadOnly: true, Deadline: soakDeadline,
		ReconnectMin: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		return Report{}, fmt.Errorf("chaos: skew router: %w", err)
	}
	defer c.skew.Close()
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c.instrument(reg)

	rounds := int((cfg.Duration + soakRound - 1) / soakRound)
	schedule := genSchedule(cfg.Seed, rounds, soakShards, soakReplicas, soakRound)
	faults := 0
	for _, evs := range schedule {
		faults += len(evs)
	}
	c.logf("chaos: seed %d: %d rounds, %d scheduled faults, fleet %dx%d, deadline %v",
		cfg.Seed, rounds, faults, soakShards, soakReplicas, soakDeadline)

	for round := 0; round < rounds && !c.violated(); round++ {
		c.runRound(round, schedule[round])
		if err := c.quiesce(15 * time.Second); err != nil {
			c.vio("round %d: %v", round, err)
			break
		}
		c.goldenSweep(fmt.Sprintf("round %d quiescent", round), 8, int64(round)*7919+cfg.Seed)
		w := c.series("writer")
		c.logf("chaos: round %d/%d done: %d/%d replicas up, %d updates, %d resyncs (%d restores), %d failovers, %d failures",
			round+1, rounds, w("replicas_up"), w("replicas_total"), w("updates_total"),
			w("resyncs_total"), w("restores_total"), w("failovers_total"), w("failures_total"))
	}

	// Final durability phase: quiesce, then kill EVERY replica and
	// restart all of them cold. The router's durable log must re-drive
	// the whole fleet to the acknowledged head — any lost acknowledged
	// write breaks the closing bit-identity sweep.
	if !c.violated() {
		c.logf("chaos: final durability check: killing and cold-restarting all %d replicas", soakShards*soakReplicas)
		c.pmu.Lock()
		for s := range c.procs {
			for r := range c.procs[s] {
				c.killLocked(s, r)
			}
		}
		c.pmu.Unlock()
		if err := c.quiesce(30 * time.Second); err != nil {
			c.vio("durability restart: %v", err)
		} else {
			c.goldenSweep("post-restart durability", 16, cfg.Seed^0x5eed)
		}
	}

	w, sk := c.series("writer"), c.series("skew")
	both := func(name string) uint64 { return w(name) + sk(name) }
	rep := Report{
		Seed: cfg.Seed, Rounds: rounds, Faults: faults,
		Updates: c.updates.Load(), Reads: c.reads.Load(), SkewReads: c.skewReads.Load(),
		TypedErrors: c.typedErrs.Load(), DeadlineErrors: c.deadlineErrs.Load(),
		GoldenChecks: c.goldenChecks.Load(),
		Resyncs:      w("resyncs_total"), Replayed: w("replayed_total"), Restores: w("restores_total"),
		BreakerTrips: both("breaker_trips_total"),
		Failovers:    both("failovers_total"),
		HedgeWins:    both("hedge_wins_total"),
	}
	c.vmu.Lock()
	defer c.vmu.Unlock()
	if len(c.violations) > 0 {
		return rep, fmt.Errorf("chaos: seed %d: %d invariant violations:\n  %s",
			cfg.Seed, len(c.violations), strings.Join(c.violations, "\n  "))
	}
	return rep, nil
}

// violated reports whether any invariant has already failed.
func (c *soak) violated() bool {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	return len(c.violations) > 0
}

// runRound drives one fault round: traffic goroutines hammer the fleet
// while the round's schedule executes in order.
func (c *soak) runRound(round int, evs []event) {
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Updater: acknowledged updates must never fail — replica 0 of every
	// shard is reachable by construction, so a failure here is a real
	// write-path defect, not schedule noise.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(c.cfg.Seed + int64(round)*2 + 1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.writer.ApplyUpdates([]runtime.TableUpdate{c.randUpdate(rng)}); err != nil {
				c.vio("round %d: acknowledged-update path failed: %v", round, err)
				return
			}
			c.updates.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Reader on the writing router (no deadline): must always resolve as
	// success or a typed error, whatever the schedule is doing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(c.cfg.Seed + int64(round)*2 + 2))
		var dst []float32
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := 1 + rng.Intn(soakMaxBatch)
			var err error
			dst, err = c.writer.EmbedInto(dst, c.randRows(rng, batch), batch)
			if err != nil && !typedErr(err) {
				c.vio("round %d: writer read failed untyped: %v", round, err)
				return
			}
			c.reads.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	// Skew reader: the deadline-bounded path. Invariant 3: resolve within
	// budget+epsilon, or fail typed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(c.cfg.Seed + int64(round)*2 + 3))
		bound := soakDeadline + epsilon
		var dst []float32
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := 1 + rng.Intn(soakMaxBatch)
			begin := time.Now()
			var err error
			dst, err = c.skew.EmbedInto(dst, c.randRows(rng, batch), batch)
			wall := time.Since(begin)
			c.skewReads.Add(1)
			if wall > bound {
				c.vio("round %d: deadline-bounded read resolved in %v, bound %v (err=%v)", round, wall, bound, err)
				return
			}
			if err != nil {
				if !typedErr(err) {
					c.vio("round %d: deadline-bounded read failed untyped: %v", round, err)
					return
				}
				c.typedErrs.Add(1)
				var de *remote.DeadlineExceeded
				if errors.As(err, &de) {
					c.deadlineErrs.Add(1)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Execute the schedule in order, then let traffic run out the round.
	begin := time.Now()
	for _, ev := range evs {
		if d := ev.at - time.Since(begin); d > 0 {
			time.Sleep(d)
		}
		c.apply(ev)
	}
	if d := soakRound - time.Since(begin); d > 0 {
		time.Sleep(d)
	}
	close(stop)
	wg.Wait()
}

// apply executes one scheduled fault.
func (c *soak) apply(ev event) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	p := c.procs[ev.shard][ev.rep]
	switch ev.kind {
	case evDelay:
		p.in.SetReadDelay(ev.amount)
	case evClearDelay:
		p.in.SetReadDelay(0)
	case evTruncate:
		p.in.SetTruncateAfter(ev.bytes)
	case evClearTruncate:
		p.in.SetTruncateAfter(0)
	case evReset:
		p.in.Reset()
	case evKill:
		c.killLocked(ev.shard, ev.rep)
	case evRestart:
		c.restartLocked(ev.shard, ev.rep)
	}
}

// killLocked hard-kills one replica process: every live connection RSTs
// and the listener closes. Callers hold pmu.
func (c *soak) killLocked(s, r int) {
	p := c.procs[s][r]
	if p.dead {
		return
	}
	p.in.Drop(true)
	p.stop()
	p.dead = true
}

// restartLocked cold-restarts a dead replica at its old address: a fresh
// process rebuilds the deterministic shard model at update sequence 0,
// and the router re-drives it from the durable log. Callers hold pmu.
func (c *soak) restartLocked(s, r int) {
	p := c.procs[s][r]
	if !p.dead {
		return
	}
	np, err := c.startReplica(s, p.addr)
	if err != nil {
		c.vio("restart s%dr%d: %v", s, r, err)
		return
	}
	c.procs[s][r] = np
}

// quiesce clears every armed fault, restarts any still-dead replica, and
// waits for the router to re-admit the whole fleet AND serve a probe
// read. The probe matters: after a kill, a reconnected client can still
// hold a socket the dead process RST'd — only a real write discovers it,
// so health alone declares quiescence too early.
func (c *soak) quiesce(timeout time.Duration) error {
	c.pmu.Lock()
	for s := range c.procs {
		for r := range c.procs[s] {
			if c.procs[s][r].dead {
				c.restartLocked(s, r)
			}
			p := c.procs[s][r]
			p.in.SetReadDelay(0)
			p.in.SetTruncateAfter(0)
		}
	}
	total := 0
	for _, g := range c.procs {
		total += len(g)
	}
	c.pmu.Unlock()
	deadline := time.Now().Add(timeout)
	probeRows := c.randRows(rand.New(rand.NewSource(c.cfg.Seed^0x9e37)), 1)
	for {
		w := c.series("writer")
		if w("replicas_up") == uint64(total) {
			if _, err := c.writer.EmbedInto(nil, probeRows, 1); err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not re-admitted within %v: %d/%d replicas up, %d breakers open",
				timeout, w("replicas_up"), w("replicas_total"), w("breakers_open"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goldenSweep bit-checks `n` quiescent reads against the golden model —
// the fleet must answer exactly what OnApplied accumulated, no matter
// which replicas survived the round.
func (c *soak) goldenSweep(phase string, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		batch := 1 + rng.Intn(soakMaxBatch)
		rows := c.randRows(rng, batch)
		got, err := c.writer.EmbedInto(nil, rows, batch)
		if err != nil {
			c.vio("%s: quiescent read %d failed: %v", phase, i, err)
			return
		}
		want, err := c.golden.Embedding.Forward(rows, batch)
		if err != nil {
			c.vio("%s: golden forward: %v", phase, err)
			return
		}
		for j, w := range want.Data() {
			if got[j] != w {
				c.vio("%s: read %d diverged from golden at value %d: fleet %v != golden %v", phase, i, j, got[j], w)
				return
			}
		}
		c.goldenChecks.Add(1)
	}
}

// randRows draws one request's per-table row indices.
func (c *soak) randRows(rng *rand.Rand, batch int) [][]int {
	rows := make([][]int, c.mc.Tables)
	for t := range rows {
		rows[t] = make([]int, batch*c.mc.Reduction)
		for i := range rows[t] {
			rows[t][i] = rng.Intn(c.mc.TableRows)
		}
	}
	return rows
}

// randUpdate draws one single-table gradient update.
func (c *soak) randUpdate(rng *rand.Rand) runtime.TableUpdate {
	n := 1 + rng.Intn(soakMaxBatch*c.mc.Reduction-1)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(c.mc.TableRows)
	}
	grads := tensor.New(n, c.mc.EmbDim)
	g := grads.Data()
	for i := range g {
		g[i] = rng.Float32() - 0.5
	}
	return runtime.TableUpdate{Table: rng.Intn(c.mc.Tables), Rows: rows, Grads: grads}
}

// typedErr reports whether err is one of the typed failures the stack is
// allowed to surface under faults.
func typedErr(err error) bool {
	var un *remote.Unavailable
	var de *remote.DeadlineExceeded
	var se *netclient.ServerError
	var dl *netclient.DeadlineError
	return errors.As(err, &un) || errors.As(err, &de) || errors.As(err, &se) || errors.As(err, &dl)
}

// startReplica boots one in-process replica of shard s: the same
// construction a real `tensorserve shard` process performs — rebuild the
// deterministic model from the seed, deploy the shard (cluster.DeployShard),
// serve behind a faultnet-wrapped listener. A fixed addr is re-bound with
// retries so a restarted replica reclaims its old endpoint.
func (c *soak) startReplica(s int, addr string) (*proc, error) {
	m, err := recsys.Build(c.mc, c.cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	srv, err := cluster.DeployShard(m, cluster.Config{
		Nodes: soakShards, DIMMsPerNode: 4, MaxBatch: soakMaxBatch, Workers: 2,
	}, s)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	ns, err := netserve.New(netserve.ServerBackend(srv), netserve.Config{Role: wire.RoleReplica})
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("chaos: %w", err)
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
			ns.Close()
			srv.Close()
			return nil, fmt.Errorf("chaos: listen %s: %w", listenAt, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	in := faultnet.NewInjector()
	go ns.Serve(faultnet.Wrap(l, in))
	var once sync.Once
	pr := &proc{addr: l.Addr().String(), in: in}
	pr.stop = func() {
		once.Do(func() {
			ns.Close()
			srv.Close()
		})
	}
	return pr, nil
}

// stopAll tears the fleet down.
func (c *soak) stopAll() {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	for _, g := range c.procs {
		for _, p := range g {
			if p != nil && !p.dead {
				p.stop()
			}
		}
	}
}
