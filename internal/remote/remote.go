// Package remote routes requests across replica groups of remote
// TensorNode shard processes: a RemoteCluster speaks the internal/wire
// protocol (through internal/netclient) to N replicas of each shard of a
// placement-sharded model, and exposes the same request surface as the
// in-process cluster.Cluster — EmbedInto, ApplyUpdates, Metrics, Close —
// with the same bit-identity contract against the golden model.
//
// A RemoteCluster is a thin owner of the shared cluster.Router core —
// validation, placement routing, deduplication, scatter/gather, golden
// merge, update splitting and per-table ordering run there, once, for both
// the in-process and the remote router — over the transport this package
// implements: replica groups behind the wire.
//
// Reads. The router core deduplicates every lookup into per-shard
// sub-requests and puts every one of them on the wire (Start) before it
// waits for any (Wait), all on the calling goroutine: a read costs one
// round trip to its slowest shard, and nothing between the caller and the
// replicas queues it. The router therefore bounds no concurrency of its
// own. Behind a netserve front, Config.MaxInflight there admits the reads;
// a caller driving a RemoteCluster directly, in process, gets every read it
// submits concurrently on the wire at once, and a replica past its own
// admission limit sheds with a typed OVERLOADED, which fails over and — with
// the whole group shedding or the retry budget spent — surfaces as a typed
// *Unavailable. Each sub-request round-robins over its shard's healthy
// replicas; when the first attempt has not answered within the shard's
// hedge delay (a tracked latency percentile, floored at hedgeAfter),
// a second attempt fires on another replica and the first answer wins — the
// loser is abandoned to netclient, which drops its late response. Start
// only records the hedge and deadline instants; Wait takes an answer that
// is already here before it acts on a passed instant, and arms the
// sub-read's one timer only when it has to block. A transport loss or an
// admission-control shed fails over to the next healthy replica; only
// when every replica of a shard is unreachable does the request fail,
// fast, with a typed *Unavailable. The gathered partials merge through
// the shared cluster.Merger, so results are bit-identical to the golden
// embedding no matter which replica answered. The steady-state read path
// performs no heap allocations: the router's scratch (with each shard
// sub-read's timer), destination buffers and calls are all pooled.
//
// Writes. The router is the single writer of its fleet. Every per-shard
// sub-update is appended to that shard's durable update log
// (internal/persist) before it is fanned out to the replicas with the
// sequenced SYNC op: a replica applies update number seq only when seq
// matches its own applied count, acks replays without reapplying, and
// rejects gaps — exactly-once semantics over arbitrary disconnects. A
// replica that was down rejoins through a catch-up replay: its reconnect
// handshake announces how many updates it has applied, the router replays
// the missing log suffix, and only then do reads route to it again.
//
// Durability. Each shard's log is a persist.ShardLog: a WAL under
// Config.DataDir (or an in-memory equivalent when DataDir is empty),
// trimmed every Config.SnapshotEvery entries by scraping a full-table
// snapshot from a replica at the log head — so log bytes stay bounded in
// both modes. Because the WAL append happens before fan-out, the durable
// log is always a superset of any replica's applied state: a router
// restarted from DataDir replays WAL-tail-over-snapshot at New, resumes
// at the correct SYNC sequence, and re-drives every replica to the log
// head before serving. A replica that announces a sequence below the
// snapshot horizon is reseated with the RESTORE op (chunked absolute-row
// install) and then replays the remaining tail. The WAL is written with
// one write syscall per append and no per-append fsync: it survives
// router crashes (the kernel owns the bytes) but not a machine-wide power
// loss; snapshots are written tmp + fsync + rename.
//
// The router core's per-table locks serialize same-table updates — float
// accumulation order is part of the bit-identity contract — and the
// optional Config.OnApplied hook fires in exactly that order, so a caller
// can maintain a golden reference model that stays bit-identical to the
// fleet.
package remote

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netclient"
	"tensordimm/internal/persist"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/wire"
)

// Config describes the fleet a RemoteCluster routes over. Model,
// Strategy, and Shards are required; the zero value of every other field
// selects a documented default at New.
type Config struct {
	// Model is the full model's configuration. The router never holds the
	// model's weights — it needs the geometry (tables, reduction,
	// dimension, rows) for placement and validation and the pooling mode
	// (Mean, Op) for the merge.
	Model recsys.Config
	// Strategy selects table-wise or row-wise sharding. The shard
	// processes must have been built with the same strategy and shard
	// count (cluster.DeployShard / `tensorserve shard`).
	Strategy cluster.Strategy
	// Shards lists each shard's replica addresses: Shards[s] holds the
	// endpoints serving shard s (1 to 64 entries). A shard the placement
	// leaves empty must have an empty list.
	Shards [][]string

	// MaxBatch caps the samples of one request. Defaults to 64. It must
	// match the -max-batch the shard processes were sized with: every
	// replica's announced geometry is validated against it at New.
	MaxBatch int
	// Conns is the connection pool size per replica. Defaults to 1.
	Conns int
	// RetryFor, ReconnectMin and ReconnectMax pass through to every
	// replica's netclient.Config (frame limit and dial timeout keep the
	// netclient defaults). RetryFor keeps redialing refused connections at
	// New, so the router may start before its shard processes.
	RetryFor time.Duration
	// ReconnectMin is the first redial backoff after a replica is lost.
	ReconnectMin time.Duration
	// ReconnectMax caps the doubling redial backoff.
	ReconnectMax time.Duration

	// Deadline is the end-to-end budget of one read request. Every attempt
	// is stamped with the remaining budget on the wire (so a replica sheds
	// work the caller has already given up on, and a failover or hedge can
	// never outlive the original request), and when the budget lapses
	// before any replica answers, the read fails with a typed
	// *DeadlineExceeded instead of waiting out a slow replica. Zero means
	// no deadline. Updates are not deadline-bounded: once appended to the
	// shard log they are applied-eventually by design.
	Deadline time.Duration

	// DataDir, when set, roots the router's durable state: each shard's
	// WAL, snapshots, and hot-row lists live under DataDir/shard-NNN. A
	// router restarted with the same DataDir rebuilds its update logs,
	// resumes at the correct SYNC sequence, and re-drives its replicas to
	// the log head before serving. Empty keeps the logs in memory — still
	// snapshot-trimmed, but lost with the process. Mutually exclusive with
	// ReadOnly: a read-only router holds no update log.
	DataDir string
	// SnapshotEvery is how many log entries a shard accumulates before the
	// router scrapes a full-table snapshot from a replica at the log head
	// and trims the log prefix the snapshot covers. Zero defaults to
	// persist.DefaultSnapshotEvery; negative is invalid. Smaller values
	// bound log bytes tighter at the cost of more scrape traffic.
	SnapshotEvery int

	// OnApplied, if set, is called once per successfully applied table
	// update, under that table's update lock, in exactly the order the
	// shard logs sequenced it. A caller maintaining a golden reference
	// model applies the same update there to stay bit-identical to the
	// fleet.
	OnApplied func(runtime.TableUpdate)

	// ReadOnly attaches the router to a fleet it does not own — sticky-shard
	// read routing. Reads route placement-aware straight to each shard's
	// replica group, skipping the hop through the fleet's writing router;
	// ApplyUpdates is refused with ErrReadOnly. Because the fleet's single
	// writer owns the update log, a read-only router accepts replicas at any
	// announced update sequence (a writing router demands sequence 0) and
	// re-admits a recovered replica without catch-up replay — freshness is
	// the writer's job. Reads are bit-identical to the golden model for
	// whatever update sequence the answering replica has absorbed; a replica
	// the writer has not yet caught up serves correspondingly older values.
	ReadOnly bool
}

// Fixed robustness tuning.
const (
	// hedgePercentile is the attempt-latency percentile a shard's hedge
	// delay tracks; hedgeAfter floors that delay, so a second read attempt
	// never fires earlier. Hedging only arms on shards with >= 2 replicas.
	hedgePercentile = 0.95
	hedgeAfter      = time.Millisecond
	// A replica's circuit breaker trips when breakerThreshold of its last
	// breakerWindow attempts failed, and then rejects it for breakerOpenFor
	// before admitting one probe (the same spacing between probes while it
	// keeps failing) — which keeps a brown-out replica (alive connection,
	// failing attempts) from eating a retry on every request.
	breakerWindow    = 32
	breakerThreshold = 0.5
	breakerOpenFor   = 250 * time.Millisecond
	// retryBudget caps failover amplification: each read entering a shard
	// earns the shard retryBudget failover tokens and each failover spends
	// one, so sustained retry traffic cannot exceed retryBudget times the
	// offered load plus the retryBurst bucket. When a shard's bucket is
	// empty the read fails with a typed *Unavailable instead of retrying.
	// Hedges are not charged — they are bounded by design to one per request.
	retryBudget = 0.2
	retryBurst  = 16
)

// tuning is the robustness tuning a router runs with: the constants above,
// which only tests vary (export_test.go).
type tuning struct {
	hedgeAfter     time.Duration
	breakerOpenFor time.Duration
	retryBudget    float64
	retryBurst     int
}

// ErrReadOnly is returned by ApplyUpdates on a read-only (sticky) router:
// updates must go through the fleet's single writer.
var ErrReadOnly = errors.New("remote: router is read-only; route updates through the fleet's writer")

// Unavailable is the typed fast-failure returned when every replica of a
// shard is down (or has been tried and lost) — the caller can distinguish
// a fleet outage from a rejected request.
type Unavailable struct {
	// Shard is the shard whose replica group is unreachable.
	Shard int
	// Err is the last per-replica error observed, when one exists.
	Err error
}

// Error implements error.
func (e *Unavailable) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("remote: shard %d: every replica is down (last: %v)", e.Shard, e.Err)
	}
	return fmt.Sprintf("remote: shard %d: every replica is down", e.Shard)
}

// Unwrap exposes the last per-replica error to errors.Is/As.
func (e *Unavailable) Unwrap() error { return e.Err }

// DeadlineExceeded is the typed failure of a read whose Config.Deadline
// budget lapsed before any replica of a shard answered.
type DeadlineExceeded struct {
	// Shard is the shard whose sub-request ran out of budget.
	Shard int
	// Budget is the configured end-to-end deadline.
	Budget time.Duration
}

// Error implements error.
func (e *DeadlineExceeded) Error() string {
	return fmt.Sprintf("remote: shard %d: deadline budget %v exhausted", e.Shard, e.Budget)
}

// Replica health states. A replica serves reads only while healthy;
// syncing marks a catch-up replay in progress.
const (
	repDown int32 = iota
	repSyncing
	repHealthy
)

// replica is one endpoint of a shard's replica group.
type replica struct {
	addr  string
	cl    *netclient.Client
	state atomic.Int32
	// brk is the replica's circuit breaker over recent attempt outcomes,
	// orthogonal to state (see breaker).
	brk breaker
	// applied counts the log entries this replica has absorbed; guarded
	// by the owning shard's updMu.
	applied uint64
}

// rShard is one shard of the fleet: its replica group, its durable update
// log, and its hedge-delay tracker.
type rShard struct {
	id       int
	replicas []*replica
	rr       atomic.Uint64
	// maxSub is the shard's largest sub-request (the replica's announced
	// MaxBatch), which sizes snapshot scrape chunks.
	maxSub int
	// retryTokens is the shard's failover token bucket in millitokens
	// (see refillRetry/takeRetry).
	retryTokens atomic.Int64

	// updMu serializes log appends, fan-out, catch-up replay, and snapshot
	// scrapes for this shard, so every replica absorbs the same entries in
	// the same order.
	updMu sync.Mutex
	// store is the shard's snapshot-trimmed update log (nil on empty shards
	// and read-only routers); guarded by updMu.
	store *persist.ShardLog
	// snapSpare is the snapshot table the log retired at its last install,
	// the buffer the next scrape fills (nil until the second snapshot);
	// guarded by updMu.
	snapSpare []float32

	hedge hedgeTracker
}

// hedgeTracker tracks a percentile of recent read-attempt latencies for
// one shard, recomputed every few dozen observations into an atomically
// readable threshold — the hot path never sorts or locks.
type hedgeTracker struct {
	thresh atomic.Int64 // nanoseconds; 0 until enough observations

	mu     sync.Mutex
	ring   [256]int64
	sorted [256]int64
	n      int
	idx    int
	obs    int
}

// observe records one successful attempt's latency and periodically
// refreshes the percentile threshold.
func (h *hedgeTracker) observe(d time.Duration) {
	h.mu.Lock()
	h.ring[h.idx] = int64(d)
	h.idx = (h.idx + 1) % len(h.ring)
	if h.n < len(h.ring) {
		h.n++
	}
	h.obs++
	if h.obs >= 64 {
		h.obs = 0
		copy(h.sorted[:h.n], h.ring[:h.n])
		s := h.sorted[:h.n]
		slices.Sort(s)
		h.thresh.Store(s[int(float64(h.n-1)*hedgePercentile)])
	}
	h.mu.Unlock()
}

// after returns the current hedge delay, floored at the configured
// minimum.
func (h *hedgeTracker) after(floor time.Duration) time.Duration {
	if t := time.Duration(h.thresh.Load()); t > floor {
		return t
	}
	return floor
}

// RemoteCluster routes requests over a fleet of remote shard replicas.
// Create with New, submit from any number of goroutines, and Close when
// done. It satisfies netserve.Backend, so a router can itself be served
// over the network plane.
type RemoteCluster struct {
	cfg    Config
	place  *cluster.Placement
	shards []*rShard
	// router is the shared shard router core; this package is its
	// transport (fleetTransport).
	router *cluster.Router
	brkCfg breakerCfg
	// hedgeAfter floors the hedge delay; retryRefill/retryCap are the
	// failover token-bucket parameters in millitokens.
	hedgeAfter  time.Duration
	retryRefill int64
	retryCap    int64

	bufPool sync.Pool

	// ready gates the netclient callbacks until New finished wiring the
	// replica structures they reference.
	ready     chan struct{}
	readyOnce sync.Once
	closeCh   chan struct{}
	janitorWG sync.WaitGroup

	hedges    atomic.Uint64 // hedged second attempts fired
	hedgeWins atomic.Uint64 // requests won by the hedged attempt
	failovers atomic.Uint64 // failover replacement attempts started
	unavail   atomic.Uint64 // operations failed with Unavailable
	brkTrips  atomic.Uint64 // circuit breakers tripped closed->open
	denied    atomic.Uint64 // failovers denied by the retry budget
	deadlines atomic.Uint64 // reads failed with DeadlineExceeded
	resyncs   atomic.Uint64 // replica catch-up replays completed
	replayed  atomic.Uint64 // log entries delivered by catch-up replays
	snapshots atomic.Uint64 // shard snapshots scraped and installed
	restores  atomic.Uint64 // replicas reseated from a snapshot (RESTORE)
}

// New opens (and replays) each shard's durable update log, dials every
// replica of every shard, validates each handshake against the placement
// (a replica must announce exactly the flat gather-only geometry its
// shard position implies, at an update sequence no further than the
// recovered log head), drives lagging replicas back to the head, and
// returns a router ready to serve. Every replica is supervised: a lost
// connection reconnects with backoff and rejoins through a catch-up
// replay of the shard's update log.
func New(cfg Config) (*RemoteCluster, error) {
	return newCluster(cfg, tuning{hedgeAfter, breakerOpenFor, retryBudget, retryBurst})
}

// newCluster is New with the robustness tuning spelled out.
func newCluster(cfg Config, tune tuning) (*RemoteCluster, error) {
	mc := cfg.Model
	if mc.Tables <= 0 || mc.Reduction <= 0 || mc.EmbDim <= 0 || mc.TableRows <= 0 {
		return nil, fmt.Errorf("remote: model geometry must be positive (tables %d, reduction %d, dim %d, rows %d)",
			mc.Tables, mc.Reduction, mc.EmbDim, mc.TableRows)
	}
	if cfg.Strategy != cluster.TableWise && cfg.Strategy != cluster.RowWise {
		return nil, fmt.Errorf("remote: unknown strategy %v", cfg.Strategy)
	}
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("remote: no shards configured")
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("remote: MaxBatch %d is negative (use 0 for the default)", cfg.MaxBatch)
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("remote: SnapshotEvery %d is negative (use 0 for the default)", cfg.SnapshotEvery)
	}
	if cfg.Deadline < 0 {
		return nil, fmt.Errorf("remote: Deadline %v is negative (use 0 for no deadline)", cfg.Deadline)
	}
	if cfg.ReadOnly && cfg.DataDir != "" {
		return nil, fmt.Errorf("remote: a read-only router holds no update log; drop DataDir %q or ReadOnly", cfg.DataDir)
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 64
	}

	rc := &RemoteCluster{
		cfg:   cfg,
		place: cluster.NewPlacement(cfg.Strategy, len(cfg.Shards), mc.Tables, mc.TableRows),
		brkCfg: breakerCfg{
			size:      breakerWindow,
			need:      breakerWindow / 4,
			threshold: breakerThreshold,
			openFor:   tune.breakerOpenFor,
		},
		hedgeAfter:  tune.hedgeAfter,
		retryRefill: int64(tune.retryBudget * 1000),
		retryCap:    int64(tune.retryBurst) * 1000,
		ready:       make(chan struct{}),
		closeCh:     make(chan struct{}),
	}
	// Built before the first dial so a failing New tears down through the
	// same Close as a running router; it serves nothing until New returns.
	rc.router = cluster.NewRouter("remote", mc, rc.place, cfg.MaxBatch, fleetTransport{rc}, cfg.OnApplied)
	fail := func(err error) (*RemoteCluster, error) {
		rc.Close()
		return nil, err
	}

	maxCap := 0
	for s, addrs := range cfg.Shards {
		localRows := rc.place.LocalRows(s)
		if localRows == 0 {
			if len(addrs) != 0 {
				return fail(fmt.Errorf("remote: shard %d holds no rows under %v placement but has %d replica addresses",
					s, cfg.Strategy, len(addrs)))
			}
			rc.shards = append(rc.shards, &rShard{id: s})
			continue
		}
		if len(addrs) == 0 {
			return fail(fmt.Errorf("remote: shard %d has no replica addresses", s))
		}
		if len(addrs) > 64 {
			return fail(fmt.Errorf("remote: shard %d has %d replicas, above the supported 64", s, len(addrs)))
		}
		maxSub := rc.place.MaxSub(s, cfg.MaxBatch, mc.Reduction)
		if n := maxSub * mc.EmbDim; n > maxCap {
			maxCap = n
		}
		sh := &rShard{id: s, maxSub: maxSub}
		sh.retryTokens.Store(rc.retryCap) // start with a full burst bucket
		// Registered before dialing so a mid-shard failure still closes this
		// shard's store and already-dialed clients through Close.
		rc.shards = append(rc.shards, sh)
		if !cfg.ReadOnly {
			// The store opens (and replays) before the first replica dials:
			// the handshake check below needs the recovered log head.
			store, err := persist.Open(persist.Config{
				Dir:             cfg.DataDir,
				Shard:           s,
				Dim:             mc.EmbDim,
				LocalRows:       localRows,
				MaxRowsPerEntry: maxSub,
				SnapshotEvery:   cfg.SnapshotEvery,
			})
			if err != nil {
				return fail(fmt.Errorf("remote: shard %d: %w", s, err))
			}
			sh.store = store
		}
		want := wire.Geometry{Tables: 1, Reduction: 1, Dim: mc.EmbDim, TableRows: localRows, MaxBatch: maxSub}
		for _, addr := range addrs {
			rep := &replica{addr: addr}
			shc, repc := sh, rep
			cl, err := netclient.Dial(addr, netclient.Config{
				Conns:        cfg.Conns,
				RetryFor:     cfg.RetryFor,
				Reconnect:    true,
				ReconnectMin: cfg.ReconnectMin,
				ReconnectMax: cfg.ReconnectMax,
				OnUp: func(h wire.Hello) {
					<-rc.ready
					rc.resync(shc, repc, h)
				},
				OnDown: func(error) {
					<-rc.ready
					repc.state.Store(repDown)
				},
			})
			if err != nil {
				return fail(fmt.Errorf("remote: shard %d replica %s: %w", s, addr, err))
			}
			rep.cl = cl
			sh.replicas = append(sh.replicas, rep)
			h := cl.Hello()
			if h.Geom != want {
				return fail(fmt.Errorf("remote: shard %d replica %s announced geometry %+v, placement expects %+v (same -strategy/-shards/-max-batch on both sides?)",
					s, addr, h.Geom, want))
			}
			if len(addrs) > 1 && h.Role != wire.RoleReplica {
				return fail(fmt.Errorf("remote: shard %d replica %s announced role %v in a %d-replica group; start it with tensorserve shard so it serves as a replica",
					s, addr, h.Role, len(addrs)))
			}
			if !cfg.ReadOnly && h.UpdateSeq > sh.store.Head() {
				return fail(fmt.Errorf("remote: shard %d replica %s already applied %d updates, ahead of the router's log head %d — it served a different writer (restart it, or start this router from that writer's -data-dir)",
					s, addr, h.UpdateSeq, sh.store.Head()))
			}
			rep.applied = h.UpdateSeq
			rep.state.Store(repHealthy)
		}
	}

	// Boot catch-up: a router restarted from its durable log re-drives
	// every replica to the recovered log head — snapshot reseat for the
	// ones below the trim horizon, sequenced replay for the rest — before
	// any traffic is admitted. A replica that cannot be caught up goes
	// down (the janitor keeps retrying) rather than failing New: the fleet
	// serves as soon as one replica per shard is current, which WaitReady
	// observes.
	if !cfg.ReadOnly {
		for _, sh := range rc.shards {
			if sh.store == nil || sh.store.Head() == 0 {
				continue
			}
			sh.updMu.Lock()
			for _, rep := range sh.replicas {
				if rep.applied == sh.store.Head() {
					continue
				}
				if err := rc.catchUp(sh, rep); err != nil {
					rep.state.Store(repDown)
				}
			}
			sh.updMu.Unlock()
		}
	}

	rc.bufPool.New = func() any {
		b := make([]float32, 0, maxCap)
		return &b
	}
	// The janitor re-admits replicas whose connection recovered but whose
	// catch-up replay failed (or who were dropped for persistent shedding)
	// — any down replica with a live connection is retried.
	rc.janitorWG.Add(1)
	go rc.janitor()
	rc.markReady()
	return rc, nil
}

// markReady releases the netclient callbacks gated on New's wiring.
func (rc *RemoteCluster) markReady() {
	rc.readyOnce.Do(func() { close(rc.ready) })
}

// janitor periodically resyncs down replicas whose connection is live.
func (rc *RemoteCluster) janitor() {
	defer rc.janitorWG.Done()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-rc.closeCh:
			return
		case <-tick.C:
			for _, sh := range rc.shards {
				for _, rep := range sh.replicas {
					if rep.state.Load() == repDown && rep.cl.Healthy() {
						rc.resync(sh, rep, rep.cl.Hello())
					}
				}
			}
		}
	}
}

// fleetTransport is the router core's transport over the replica fleet:
// hedged, breaker-guarded, deadline-stamped wire reads, and durable
// sequenced SYNC fan-out for writes (appendAndFan).
type fleetTransport struct{ rc *RemoteCluster }

// NewCall allocates one rCall per shard for a router scratch, each with
// its stopped timer.
func (t fleetTransport) NewCall() cluster.Call {
	fc := &fleetCall{shard: make([]rCall, len(t.rc.shards))}
	for s := range fc.shard {
		tm := time.NewTimer(time.Hour)
		tm.Stop()
		fc.shard[s] = rCall{rc: t.rc, s: s, rowsArg: make([][]int, 1), tm: tm}
	}
	return fc
}

// Update sequences one sub-update into the shard's durable log and fans
// it out to the replica group.
func (t fleetTransport) Update(s int, sub runtime.TableUpdate) error {
	return t.rc.appendAndFan(t.rc.shards[s], sub)
}

// fleetCall is the transport's state for one router scratch.
type fleetCall struct{ shard []rCall }

// Start puts one shard's sub-request on the wire — the primary attempt on
// the next healthy replica — and returns without waiting for the answer.
func (fc *fleetCall) Start(s int, rows []int, start time.Time) {
	call := &fc.shard[s]
	call.rowsArg[0] = rows
	call.deadline = time.Time{}
	if d := call.rc.cfg.Deadline; d > 0 {
		call.deadline = start.Add(d)
	}
	call.begin()
}

// Wait settles one shard's started sub-request: the first answer wins,
// hedging and failing over as needed.
func (fc *fleetCall) Wait(s int) ([]float32, error) {
	call := &fc.shard[s]
	call.wait()
	return call.out, call.err
}

// Release recycles every shard's winning call and buffer after the merge
// consumed them.
func (fc *fleetCall) Release() {
	for s := range fc.shard {
		call := &fc.shard[s]
		call.rc.recycle(&call.win, true)
	}
}

// rCall is one shard sub-request of a routed read. Its in-flight state —
// the attempts on the wire, the replicas already tried, the hedge instant —
// lives here, in the router's pooled scratch, rather than on a goroutine's
// stack, because the request's goroutine leaves between begin and wait to
// start the other shards. The submitting goroutine owns all of it from
// begin to wait; the winning attempt's resources stay until Release.
type rCall struct {
	rc      *RemoteCluster
	s       int
	rowsArg [][]int   // reused 1-element request header
	out     []float32 // the winning attempt's decoded response
	err     error
	// deadline is this request's absolute expiry (zero when no deadline
	// is configured); set per request before begin.
	deadline time.Time

	// tm is the sub-read's one timer, stopped and drained except while
	// wait blocks on it.
	tm *time.Timer

	// In flight between begin and wait. settled is true once out/err hold
	// the sub-request's outcome; cur is the primary (or its failover
	// replacement), alt the hedge; hedgeAt is when wait launches the hedge
	// (zero once launched, or on a single-replica shard); tried is the
	// bitmask of replicas already attempted and lastErr the last
	// failover-worthy error.
	settled bool
	cur     attempt
	alt     attempt
	hedgeAt time.Time
	tried   uint64
	lastErr error

	// win is the winning attempt, kept until Release.
	win attempt
}

// attempt is one in-flight read attempt on a replica.
type attempt struct {
	rep    *replica
	ca     *netclient.Call
	buf    *[]float32
	start  time.Time
	hedged bool
}

// begin starts one shard's sub-request: it refills the shard's retry
// tokens, fires the round-robin first attempt and records when to hedge it
// (the shard's tracked latency percentile after the attempt started, on
// shards with a second replica). It arms no timer and never blocks on the
// network; when no replica can take the attempt the call settles here with
// a typed error, which wait reports.
func (call *rCall) begin() {
	rc := call.rc
	sh := rc.shards[call.s]
	sh.refillRetry(rc.retryRefill, rc.retryCap)

	call.out, call.err, call.lastErr = nil, nil, nil
	call.settled, call.tried = false, 0
	cur, err := call.start(false)
	if err != nil {
		call.fail(err)
		return
	}
	call.cur = cur
	call.hedgeAt = time.Time{}
	if len(sh.replicas) > 1 {
		call.hedgeAt = cur.start.Add(sh.hedge.after(rc.hedgeAfter))
	}
}

// wait drives a begun sub-request to its outcome: the first answer wins, a
// hedged second attempt fires once the hedge instant has passed, transport
// losses and sheds fail over, and the whole replica group being unreachable
// (or the deadline passing) fails typed. An answer that has already arrived
// wins over a hedge or deadline instant that passed while the read was
// parked on an earlier shard; only a wait that has to block arms the timer,
// for the earlier of the two pending instants. It returns with out/err set,
// no attempt in flight that the call still owns, and the timer stopped.
func (call *rCall) wait() {
	rc := call.rc
	for !call.settled {
		curC, altC := call.cur.done(), call.alt.done()
		var tmC <-chan time.Time
		if len(curC) == 0 && len(altC) == 0 {
			now := time.Now()
			if !call.deadline.IsZero() && !now.Before(call.deadline) {
				// Budget exhausted: abandon the in-flight attempts and fail typed.
				rc.recycle(&call.cur, false)
				rc.recycle(&call.alt, false)
				call.fail(&DeadlineExceeded{Shard: call.s, Budget: rc.cfg.Deadline})
				return
			}
			if !call.hedgeAt.IsZero() && !now.Before(call.hedgeAt) {
				call.hedgeAt = time.Time{}
				if a, aerr := call.start(true); aerr == nil {
					call.alt = a
					rc.hedges.Add(1)
				}
				continue
			}
			at := call.deadline
			if !call.hedgeAt.IsZero() && (at.IsZero() || call.hedgeAt.Before(at)) {
				at = call.hedgeAt
			}
			if !at.IsZero() {
				call.tm.Reset(at.Sub(now))
				tmC = call.tm.C
			}
		}
		select {
		case err := <-curC:
			call.settle(&call.cur, &call.alt, err)
		case err := <-altC:
			call.settle(&call.alt, &call.cur, err)
		case <-tmC:
			tmC = nil // fired and received; the next pass acts on the instant
		}
		if tmC != nil && !call.tm.Stop() {
			<-tmC
		}
	}
}

// done is the attempt's result channel, nil when no attempt is in flight.
func (a *attempt) done() <-chan error {
	if a.ca == nil {
		return nil
	}
	return a.ca.Done()
}

// recycle returns an in-flight attempt's call and destination buffer to
// their pools (nothing in flight: a no-op). received says whether the
// call's result was taken from Done; one that was not is abandoned, so
// netclient drops the late response.
func (rc *RemoteCluster) recycle(a *attempt, received bool) {
	if a.ca == nil {
		return
	}
	*a.buf = a.ca.Dst()
	if received {
		a.rep.cl.Finish(a.ca)
	} else {
		a.rep.cl.Abandon(a.ca)
	}
	rc.bufPool.Put(a.buf)
	a.ca = nil
}

// fail settles the call with a terminal routing failure, classifying it
// for metrics.
func (call *rCall) fail(err error) {
	var de *DeadlineExceeded
	if errors.As(err, &de) {
		call.rc.deadlines.Add(1)
	} else {
		call.rc.unavail.Add(1)
	}
	call.err, call.settled = err, true
}

// start fires one attempt on the next healthy untried replica whose
// circuit breaker admits traffic, cycling the shard's round-robin
// counter. Each attempt is stamped with the request's remaining deadline
// budget, so a late failover asks the replica for strictly less time than
// the original attempt did. It returns Unavailable when no replica
// qualifies and DeadlineExceeded when the budget is already gone.
func (call *rCall) start(hedged bool) (attempt, error) {
	rc, s := call.rc, call.s
	sh := rc.shards[s]
	now := time.Now()
	var budget time.Duration
	if !call.deadline.IsZero() {
		if budget = call.deadline.Sub(now); budget <= 0 {
			return attempt{}, &DeadlineExceeded{Shard: s, Budget: rc.cfg.Deadline}
		}
	}
	// Only primary attempts advance the round-robin counter: a hedge or
	// failover bumping it too would give requests an even stride over the
	// group and pin every primary to the same replica.
	begin := int(sh.rr.Load())
	if !hedged {
		begin = int(sh.rr.Add(1))
	}
	for i := 0; i < len(sh.replicas); i++ {
		ri := (begin + i) % len(sh.replicas)
		if call.tried&(1<<uint(ri)) != 0 {
			continue
		}
		rep := sh.replicas[ri]
		if rep.state.Load() != repHealthy {
			continue
		}
		if !rep.brk.allow(&rc.brkCfg, now) {
			continue
		}
		call.tried |= 1 << uint(ri)
		buf := rc.bufPool.Get().(*[]float32)
		ca, err := rep.cl.StartEmbedBudget((*buf)[:0], call.rowsArg, len(call.rowsArg[0]), budget)
		if err != nil {
			rc.bufPool.Put(buf)
			continue
		}
		return attempt{rep: rep, ca: ca, buf: buf, start: now, hedged: hedged}, nil
	}
	return attempt{}, &Unavailable{Shard: s}
}

// settle handles one attempt's result; done is the attempt that
// delivered, other may still be in flight. It leaves the call settled when
// the sub-request is finished (won or failed for good).
func (call *rCall) settle(done, other *attempt, err error) {
	rc := call.rc
	sh := rc.shards[call.s]
	if err == nil {
		// Observed when the router consumes the answer: a shard waited on
		// after another sees at least the earlier shard's latency, so its
		// hedge delay tracks when an answer was needed, not only how fast
		// the replica produced it.
		sh.hedge.observe(time.Since(done.start))
		done.rep.brk.ok(&rc.brkCfg)
		if done.hedged {
			rc.hedgeWins.Add(1)
		}
		call.out, call.settled = done.ca.Dst(), true
		call.win = *done
		done.ca = nil
		rc.recycle(other, false)
		return
	}
	// The attempt failed: recycle its call before deciding what's next.
	rc.recycle(done, true)
	var se *netclient.ServerError
	if errors.As(err, &se) && se.Code != wire.ErrOverloaded {
		// The server rejected or failed the request itself; no other
		// replica would answer differently.
		call.err, call.settled = fmt.Errorf("remote: shard %d: %w", call.s, err), true
		rc.recycle(other, false)
		return
	}
	// Transport loss or admission shed: fail over to another replica.
	call.lastErr = err
	if done.rep.brk.fail(&rc.brkCfg, time.Now()) {
		rc.brkTrips.Add(1)
	}
	if other.ca != nil {
		return // the other attempt may still win
	}
	// A replacement attempt spends one of the shard's retry tokens; an
	// empty bucket fails the read instead of amplifying the brown-out.
	if !sh.takeRetry() {
		rc.denied.Add(1)
		call.fail(&Unavailable{Shard: call.s, Err: call.lastErr})
		return
	}
	rc.failovers.Add(1)
	na, aerr := call.start(done.hedged)
	if aerr != nil {
		var un *Unavailable
		if errors.As(aerr, &un) {
			un.Err = call.lastErr
		}
		call.fail(aerr)
		return
	}
	*done = na
}

// Embed runs one embedding request of `batch` samples and returns the
// pooled [batch, tables*dim] values in a fresh slice. Safe for concurrent
// use.
func (rc *RemoteCluster) Embed(perTableRows [][]int, batch int) ([]float32, error) {
	return rc.router.EmbedInto(nil, perTableRows, batch)
}

// EmbedInto runs one embedding request of `batch` samples and decodes
// the pooled [batch, tables*dim] values row-major into dst, which is
// grown if its capacity is insufficient and returned re-sliced to exactly
// batch*tables*dim. Results are bit-identical to the golden model's
// embedding forward regardless of which replicas answered. A caller that
// reuses the returned slice performs zero heap allocations in steady
// state. Safe for concurrent use (with distinct dst buffers).
func (rc *RemoteCluster) EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error) {
	return rc.router.EmbedInto(dst, perTableRows, batch)
}

// Geometry reports the full model's shape and limits, mirroring
// cluster.Cluster.Geometry — which makes a RemoteCluster a valid
// netserve.Backend.
func (rc *RemoteCluster) Geometry() wire.Geometry { return rc.router.Geometry() }

// WaitReady blocks until every non-empty shard has at least one healthy
// replica, or the timeout elapses.
func (rc *RemoteCluster) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := true
		for _, sh := range rc.shards {
			if len(sh.replicas) == 0 {
				continue
			}
			ok := false
			for _, rep := range sh.replicas {
				if rep.state.Load() == repHealthy {
					ok = true
					break
				}
			}
			if !ok {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("remote: fleet not ready within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close stops accepting operations, drains the in-flight ones
// (Router.Close), stops the janitor, and closes every replica client and
// shard log. It is idempotent.
func (rc *RemoteCluster) Close() error {
	if !rc.router.Close() {
		return nil
	}
	rc.markReady()
	close(rc.closeCh)
	rc.janitorWG.Wait()
	for _, sh := range rc.shards {
		for _, rep := range sh.replicas {
			if rep.cl != nil {
				rep.cl.Close()
			}
		}
		if sh.store != nil {
			sh.store.Close()
		}
	}
	return nil
}
