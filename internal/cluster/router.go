package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
)

// Hop indices of the cluster tracer: routing (locate, one batched cache
// probe per shard, dedup), shard gather fan-out (first Start to last Wait),
// and the golden merge (cache fill included).
const (
	hopRoute = iota
	hopGather
	hopMerge
)

// Transport is where a Router's shards live — the one thing that differs
// between the in-process Cluster (serve.Server per shard, modeled fabric)
// and the remote replica router (hedged wire calls, durable SYNC fan-out).
// Everything else — validation, placement routing, deduplication, cache
// coherence, scatter/gather, merge order, update splitting and ordering — is
// the Router's, so the bit-identity contract has one implementation.
type Transport interface {
	// NewCall returns the transport's state for one pooled request
	// scratch. The router calls it once per scratch, never per request, so
	// whatever a Call preallocates is reused for the scratch's lifetime.
	NewCall() Call
	// Update applies one sub-update to a shard — flat local rows of the
	// shard's one-table gather-only model with their gradient rows, in
	// arrival order — and returns once the shard has committed it. The
	// router holds the owning table's update lock across the call.
	Update(shard int, sub runtime.TableUpdate) error
}

// Call is a Transport's per-request half: the shard sub-requests of one
// routed read, submitted and awaited in two phases so every sub-request is
// in flight before the router blocks on any, and the release of whatever
// they hold. A Call is owned by the goroutine running the request from the
// first Start to Release; no method is called concurrently.
type Call interface {
	// Start submits the gather of the given deduplicated flat local rows
	// (never empty) to a shard without waiting for the result. start is the
	// request's arrival time, the origin of any deadline. rows stays valid
	// and unmodified until Release. The router calls Start at most once per
	// shard per request; a submission failure is reported by that shard's
	// Wait.
	Start(shard int, rows []int, start time.Time)
	// Wait blocks until the shard's started sub-request settles and returns
	// its len(rows) x dim floats, valid until Release. The router calls it
	// exactly once for every Start — also after another shard has already
	// failed — so no attempt or buffer outlives the request.
	Wait(shard int) ([]float32, error)
	// Release ends the request: the router calls it exactly once per
	// request, after every started shard was waited on and the merge has
	// consumed every gathered row (or a Wait failed), and before the scratch
	// serves another request.
	Release()
}

// Router is the shard router core shared by Cluster and the remote replica
// router. A read is validated, routed lookup by lookup through the
// Placement, probed against each owning shard's hot-row cache in one batch
// per shard (when the shard has one), its misses deduplicated into one flat
// index list per shard, scattered to the Transport (every sub-request
// started before any is awaited, all on the caller's goroutine), and pooled
// by the Merger in golden order. An update
// batch is validated, grouped by table, serialized under per-table locks,
// split by placement with gradient rows kept in arrival order, fanned out
// to the owning shards concurrently, invalidated from their caches after
// the shard commit, and reported to the applied hook. The router also owns
// the in-flight drain, the request counters, the request-latency histogram
// and the route/gather/merge span.
type Router struct {
	// Requests, Samples and Lookups count completed reads, their samples
	// and their routed (table, row) lookups; Failures counts reads and
	// update batches that returned a routing error; Updates and UpdateRows
	// count completed update batches and their gradient rows.
	Requests, Samples, Lookups, Failures, Updates, UpdateRows atomic.Uint64
	// Latency records the wall-clock seconds of every completed read.
	Latency *telemetry.Histogram

	name     string // error prefix of the owning layer
	mc       recsys.Config
	maxBatch int
	width    int // tables x dim, the per-sample output width
	place    *Placement
	merger   Merger
	tr       Transport
	// caches holds each shard's hot-row cache; nil entries (every entry, for
	// the remote router) skip the probe.
	caches []*rowCache
	// applied, if set, observes each table update after every owning shard
	// committed it, under that table's update lock.
	applied func(runtime.TableUpdate)
	// tracer is nil until the owner instruments it; every use is nil-guarded.
	tracer *telemetry.Tracer

	scratchPool sync.Pool

	// runMu guards the closed flag against the in-flight counter so Close
	// can wait for every running operation before the owner tears the
	// shards down.
	runMu    sync.Mutex
	closed   atomic.Bool
	inflight sync.WaitGroup

	// tableMu serializes updates per global table: float accumulation is
	// not associative, so per-table ordering — across the shard commits, the
	// applied hook and the cache invalidations together — is what keeps
	// reads bit-identical to the sequential reference. Updates to distinct
	// tables proceed concurrently.
	tableMu []sync.Mutex
}

// NewRouter builds the router core for a model of geometry mc sharded by
// place. name prefixes the router's errors with the owning layer; maxBatch
// caps the samples of one read (and, times the reduction, the rows of one
// update entry); applied may be nil. The router starts no goroutines and
// bounds no concurrency of its own: a read runs on its caller's goroutine,
// so whoever admits the callers (netserve admission in front, the shards'
// own admission behind) bounds the sub-requests in flight.
func NewRouter(name string, mc recsys.Config, place *Placement, maxBatch int, tr Transport, applied func(runtime.TableUpdate)) *Router {
	r := &Router{
		Latency:  telemetry.NewHistogram(),
		name:     name,
		mc:       mc,
		maxBatch: maxBatch,
		width:    mc.Tables * mc.EmbDim,
		place:    place,
		merger:   Merger{Tables: mc.Tables, Dim: mc.EmbDim, Reduction: mc.Reduction, Mean: mc.Mean, Op: mc.Op},
		tr:       tr,
		caches:   make([]*rowCache, place.nodes),
		applied:  applied,
		tableMu:  make([]sync.Mutex, mc.Tables),
	}
	r.scratchPool.New = func() any { return r.newScratch() }
	return r
}

// rowSrc locates one lookup's resolved row: shard >= 0 indexes into that
// shard's gathered sub-request, shard == -1 indexes a row of the scratch's
// hit buffer (the lookup was served by a cache).
type rowSrc struct {
	shard int32
	idx   int32
}

// subScratch is one shard's slice of a scratch: the deduplicated flat index
// list being built, the rows the transport gathered for it, and the
// epoch-stamped dedup table replacing a per-request map — a slot is live
// only when its stamp equals the scratch's current epoch, so reuse costs
// one increment instead of a map allocation. A shard with a hot-row cache
// also has the probe bucket: the request's lookups on this shard, in
// request order, collected first so the cache is probed once for all of
// them.
type subScratch struct {
	rows  []int     // deduplicated flat rows routed to this shard
	out   []float32 // the transport's gathered rows, valid until Release
	stamp []uint32  // dedup: stamp[flat] == epoch means slot[flat] is live
	slot  []int32   // dedup: flat row -> index in rows

	probe    []int   // bucket: flat row of each lookup routed here
	probePos []int32 // bucket: the lookup's index in scratch.src
	probeHit []bool  // bucket: rowCache.probe's verdict per lookup
}

// add resolves one missed (or never probed) lookup: its flat row joins the
// shard's sub-request unless an earlier lookup of this request already put
// it there, and src is pointed at its slot either way.
func (sub *subScratch) add(s, flat int, epoch uint32, src *rowSrc) {
	if sub.stamp[flat] != epoch {
		sub.stamp[flat] = epoch
		sub.slot[flat] = int32(len(sub.rows))
		sub.rows = append(sub.rows, flat)
	}
	*src = rowSrc{shard: int32(s), idx: sub.slot[flat]}
}

// scratch is the per-request working set of the router, pooled and owned
// by exactly one request from Get to Put.
type scratch struct {
	epoch    uint32
	call     Call // the transport's half, allocated with the scratch
	sub      []subScratch
	cacheVer []uint64
	src      []rowSrc  // tables x lookups resolved sources
	hitBuf   []float32 // cache hits, one dim-wide row per hit
	hitRows  int
	// lookups is the current request's batch x reduction; vec is the
	// Merger callback over src/sub/hitBuf, built once per scratch so the
	// merge stays allocation-free.
	lookups int
	vec     func(t, i int) []float32
	span    telemetry.Span // per-hop trace slot, recycled with the scratch
}

// newScratch sizes a scratch for the router's geometry.
func (r *Router) newScratch() *scratch {
	lookups := r.maxBatch * r.mc.Reduction
	nodes := len(r.caches)
	scr := &scratch{
		call:     r.tr.NewCall(),
		sub:      make([]subScratch, nodes),
		cacheVer: make([]uint64, nodes),
		src:      make([]rowSrc, r.mc.Tables*lookups),
	}
	for s := range scr.sub {
		maxSub := r.place.MaxSub(s, r.maxBatch, r.mc.Reduction)
		scr.sub[s] = subScratch{
			rows:  make([]int, 0, maxSub),
			stamp: make([]uint32, r.place.localRows[s]),
			slot:  make([]int32, r.place.localRows[s]),
		}
		if r.caches[s] == nil {
			continue
		}
		scr.sub[s].probe = make([]int, 0, maxSub)
		scr.sub[s].probePos = make([]int32, 0, maxSub)
		scr.sub[s].probeHit = make([]bool, maxSub)
		if scr.hitBuf == nil {
			scr.hitBuf = make([]float32, r.mc.Tables*lookups*r.mc.EmbDim)
		}
	}
	dim := r.mc.EmbDim
	scr.vec = func(t, i int) []float32 {
		src := scr.src[t*scr.lookups+i]
		if src.shard < 0 {
			return scr.hitBuf[int(src.idx)*dim : (int(src.idx)+1)*dim]
		}
		out := scr.sub[src.shard].out
		return out[int(src.idx)*dim : (int(src.idx)+1)*dim]
	}
	return scr
}

// nextEpoch advances the scratch's dedup epoch, clearing the stamp tables
// only on the (rare) wrap-around.
func (scr *scratch) nextEpoch() uint32 {
	scr.epoch++
	if scr.epoch == 0 {
		for s := range scr.sub {
			clear(scr.sub[s].stamp)
		}
		scr.epoch = 1
	}
	return scr.epoch
}

// EmbedInto runs one read of `batch` samples: perTableRows holds batch x
// reduction row indices per table, and the pooled [batch, tables*dim]
// values land row-major in dst, which is grown if its capacity is
// insufficient and returned re-sliced to exactly batch*tables*dim. The
// result is bit-identical to embed.Layer.Forward over the model the shards
// hold, whatever the strategy, cache state, answering replica or co-running
// requests. A caller that reuses the returned slice performs zero heap
// allocations in steady state. Safe for concurrent use (with distinct dst
// buffers).
func (r *Router) EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error) {
	if err := r.validateRead(perTableRows, batch); err != nil {
		return nil, err
	}
	need := batch * r.width
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	dst = dst[:need]
	if err := r.run(dst, perTableRows, batch); err != nil {
		return nil, err
	}
	return dst, nil
}

// validateRead checks one read submission against the model geometry.
func (r *Router) validateRead(perTableRows [][]int, batch int) error {
	mc := &r.mc
	if batch <= 0 || batch > r.maxBatch {
		return fmt.Errorf("%s: batch %d out of range [1, %d]", r.name, batch, r.maxBatch)
	}
	if len(perTableRows) != mc.Tables {
		return fmt.Errorf("%s: %d index lists for %d tables", r.name, len(perTableRows), mc.Tables)
	}
	lookups := batch * mc.Reduction
	for t, rows := range perTableRows {
		if len(rows) != lookups {
			return fmt.Errorf("%s: table %d: %d rows for batch %d x reduction %d",
				r.name, t, len(rows), batch, mc.Reduction)
		}
		for _, row := range rows {
			if row < 0 || row >= mc.TableRows {
				return fmt.Errorf("%s: table %d: row index %d out of range [0, %d)", r.name, t, row, mc.TableRows)
			}
		}
	}
	return nil
}

// enter registers one in-flight operation, failing once the router is
// closed; the matching r.inflight.Done() lets Close drain before teardown.
func (r *Router) enter() error {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	if r.closed.Load() {
		return fmt.Errorf("%s: router is closed", r.name)
	}
	r.inflight.Add(1)
	return nil
}

// Close stops admitting operations and waits for every in-flight read and
// update to drain. It reports whether this call closed the router (false:
// it already was), so the owner tears its shards down exactly once.
func (r *Router) Close() bool {
	r.runMu.Lock()
	already := r.closed.Swap(true)
	r.runMu.Unlock()
	if already {
		return false
	}
	r.inflight.Wait()
	return true
}

// run executes one validated read against dst (length batch*tables*dim) on
// the caller's goroutine: route, start every shard's sub-request, wait for
// each, merge.
func (r *Router) run(dst []float32, perTableRows [][]int, batch int) error {
	start := time.Now()
	if err := r.enter(); err != nil {
		return err
	}
	defer r.inflight.Done()
	lookups := batch * r.mc.Reduction
	dim := r.mc.EmbDim
	r.Lookups.Add(uint64(r.mc.Tables * lookups))

	scr := r.scratchPool.Get().(*scratch)
	defer r.scratchPool.Put(scr)
	epoch := scr.nextEpoch()
	scr.hitRows, scr.lookups = 0, lookups
	if r.tracer != nil {
		scr.span.BeginAt(start)
	}

	// Route, pass 1: locate every lookup. One on a cacheless shard is
	// deduplicated into the shard's sub-request right away; one on a cached
	// shard joins that shard's probe bucket, in request order.
	for s := range scr.sub {
		sub := &scr.sub[s]
		sub.rows, sub.probe, sub.probePos = sub.rows[:0], sub.probe[:0], sub.probePos[:0]
	}
	for t, rows := range perTableRows {
		for i, row := range rows {
			s, flat := r.place.Locate(t, row)
			sub, pos := &scr.sub[s], t*lookups+i
			if r.caches[s] == nil {
				sub.add(s, flat, epoch, &scr.src[pos])
				continue
			}
			sub.probe = append(sub.probe, flat)
			sub.probePos = append(sub.probePos, int32(pos))
		}
	}

	// Route, pass 2: one probe — one lock hold — per cached shard resolves
	// its whole bucket. Hits are copied into the hit buffer (so no reference
	// into the cache outlives the probe); misses are deduplicated in bucket
	// order. The version each probe ran at is kept for the fill: it is read
	// before any gather is started, so a row gathered now that predates an
	// update landing mid-request is dropped by fill (see rowCache).
	for s, cache := range r.caches {
		sub := &scr.sub[s]
		if cache == nil || len(sub.probe) == 0 {
			continue
		}
		hit := sub.probeHit[:len(sub.probe)]
		scr.cacheVer[s] = cache.probe(sub.probe, hit, scr.hitBuf[scr.hitRows*dim:])
		for k, flat := range sub.probe {
			src := &scr.src[sub.probePos[k]]
			if hit[k] {
				*src = rowSrc{shard: -1, idx: int32(scr.hitRows)}
				scr.hitRows++
				continue
			}
			sub.add(s, flat, epoch, src)
		}
	}
	if r.tracer != nil {
		scr.span.Mark(hopRoute)
	}

	// Scatter before gather: every non-empty sub-request is submitted before
	// any is awaited, so the shards work concurrently while this goroutine —
	// which has nothing else to do — blocks on each in shard order. Every
	// started shard is waited on even after an earlier one failed, so the
	// transport never holds an attempt or buffer past Release; the lowest
	// failing shard's error is the request's.
	for s := range scr.sub {
		if sub := &scr.sub[s]; len(sub.rows) > 0 {
			scr.call.Start(s, sub.rows, start)
		}
	}
	var failed error
	for s := range scr.sub {
		sub := &scr.sub[s]
		if len(sub.rows) == 0 {
			continue
		}
		var err error
		if sub.out, err = scr.call.Wait(s); err != nil && failed == nil {
			failed = err
		}
	}
	if r.tracer != nil {
		scr.span.Mark(hopGather)
	}
	if failed != nil {
		r.Failures.Add(1)
		scr.call.Release()
		return failed
	}

	// Feed each cache the rows just gathered from its shard, one lock hold
	// per shard — unless an update bumped the shard's version since the
	// probe, in which case the gathered rows may be stale and fill drops
	// them all.
	for s, cache := range r.caches {
		if sub := &scr.sub[s]; cache != nil && len(sub.rows) > 0 {
			cache.fill(sub.rows, sub.out, scr.cacheVer[s])
		}
	}

	// Merge: pool each table's rows in request order directly into dst —
	// the exact golden embed.Pool / embed.Average operation sequence,
	// bit-identical to Layer.Forward.
	err := r.merger.Merge(dst, batch, scr.vec)
	scr.call.Release()
	if err != nil {
		r.Failures.Add(1)
		return err
	}
	r.Requests.Add(1)
	r.Samples.Add(uint64(batch))
	// One clock read closes the merge hop, the latency observation and the
	// span.
	now := time.Now()
	r.Latency.Observe(now.Sub(start).Seconds())
	if r.tracer != nil {
		scr.span.MarkAt(hopMerge, now)
		r.tracer.FinishAt(&scr.span, now)
	}
	return nil
}

// warmCache gathers the given flat local rows of shard s through the
// transport, in sub-request-sized chunks, and fills the shard's cache with
// them; it returns how many rows the cache took. Rows outside the shard's
// flat table are skipped, and the warm set is cut to what the cache holds —
// inserting more would just evict the hotter prefix. Each chunk is
// conditioned on the cache version read before its gather started, exactly
// like a read's fill, so a chunk that raced an update is dropped whole and
// not counted.
func (r *Router) warmCache(s int, flatRows []int) (int, error) {
	cache := r.caches[s]
	if cache == nil || len(flatRows) == 0 {
		return 0, nil
	}
	if err := r.enter(); err != nil {
		return 0, err
	}
	defer r.inflight.Done()
	localRows := r.place.LocalRows(s)
	rows := make([]int, 0, min(len(flatRows), localRows))
	for _, flat := range flatRows {
		if flat >= 0 && flat < localRows {
			rows = append(rows, flat)
		}
	}
	rows = rows[:min(len(rows), len(cache.rowOf))]

	scr := r.scratchPool.Get().(*scratch)
	defer r.scratchPool.Put(scr)
	maxSub := r.place.MaxSub(s, r.maxBatch, r.mc.Reduction)
	warmed := 0
	for len(rows) > 0 {
		chunk := rows[:min(maxSub, len(rows))]
		rows = rows[len(chunk):]
		ver := cache.snapshot()
		scr.call.Start(s, chunk, time.Now())
		out, err := scr.call.Wait(s)
		if err == nil {
			warmed += cache.fill(chunk, out, ver)
		}
		scr.call.Release()
		if err != nil {
			return warmed, fmt.Errorf("%s: warm: %w", r.name, err)
		}
	}
	return warmed, nil
}

// ApplyUpdates applies a batch of per-table gradient updates across the
// shards. The whole batch is validated before anything executes. Updates to
// the same global table are serialized (slice order within one call, lock
// order across calls); updates to distinct tables proceed concurrently.
// After ApplyUpdates returns, every subsequent read observes the update. A
// read concurrent with the call may observe pre-update rows, post-update
// rows, or a mix — but never a stale cache entry that outlives the update
// (see rowCache's version handshake). Safe for concurrent use.
func (r *Router) ApplyUpdates(ups []runtime.TableUpdate) error {
	if err := r.validateUpdates(ups); err != nil {
		return err
	}
	if err := r.enter(); err != nil {
		return err
	}
	defer r.inflight.Done()

	// Group by table (shared grouping with the runtime, so orderings can
	// never diverge) and fan the groups out.
	order, groups := runtime.GroupUpdatesByTable(ups)
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for gi, t := range order {
		wg.Add(1)
		go func(gi, t int) {
			defer wg.Done()
			r.tableMu[t].Lock()
			defer r.tableMu[t].Unlock()
			for _, up := range groups[t] {
				if errs[gi] = r.applyTableUpdate(up); errs[gi] != nil {
					return
				}
			}
		}(gi, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.Failures.Add(1)
			return err
		}
	}
	rows := 0
	for _, up := range ups {
		rows += len(up.Rows)
	}
	r.Updates.Add(1)
	r.UpdateRows.Add(uint64(rows))
	return nil
}

// validateUpdates checks an update batch against the model geometry. Each
// entry carries 1 to maxBatch x reduction rows — one request's worth,
// mirroring the read path and wire.DecodeUpdate.
func (r *Router) validateUpdates(ups []runtime.TableUpdate) error {
	mc := &r.mc
	if len(ups) == 0 {
		return fmt.Errorf("%s: empty update batch", r.name)
	}
	maxRows := r.maxBatch * mc.Reduction
	for i, up := range ups {
		if up.Table < 0 || up.Table >= mc.Tables {
			return fmt.Errorf("%s: update %d: table %d out of range [0, %d)", r.name, i, up.Table, mc.Tables)
		}
		if up.Grads == nil || up.Grads.Rank() != 2 || up.Grads.Dim(0) != len(up.Rows) || up.Grads.Dim(1) != mc.EmbDim {
			return fmt.Errorf("%s: update %d: gradient shape for %d rows of dim %d", r.name, i, len(up.Rows), mc.EmbDim)
		}
		if len(up.Rows) == 0 || len(up.Rows) > maxRows {
			return fmt.Errorf("%s: update %d: %d rows out of range [1, %d]", r.name, i, len(up.Rows), maxRows)
		}
		for _, row := range up.Rows {
			if row < 0 || row >= mc.TableRows {
				return fmt.Errorf("%s: update %d: row index %d out of range [0, %d)", r.name, i, row, mc.TableRows)
			}
		}
	}
	return nil
}

// applyTableUpdate routes one table's update to its owning shards (callers
// hold the table's update lock): split the rows by placement, commit each
// shard's slice through the transport concurrently, invalidate the
// committed rows from the shard caches, then fire the applied hook.
// Gradient rows are copied, so the transport owns its sub-update outright
// and callers may reuse their buffers.
func (r *Router) applyTableUpdate(up runtime.TableUpdate) error {
	// Split by owning shard, preserving arrival order per shard (duplicate
	// rows must accumulate in order).
	flatRows := make([][]int, len(r.caches)) // shard -> flat local rows
	gradSrc := make([][]int, len(r.caches))  // shard -> gradient row indices
	for i, row := range up.Rows {
		s, flat := r.place.Locate(up.Table, row)
		flatRows[s] = append(flatRows[s], flat)
		gradSrc[s] = append(gradSrc[s], i)
	}

	errs := make([]error, len(flatRows))
	var wg sync.WaitGroup
	for s := range flatRows {
		if len(flatRows[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			grads := tensor.New(len(flatRows[s]), r.mc.EmbDim)
			for j, i := range gradSrc[s] {
				copy(grads.Row(j), up.Grads.Row(i))
			}
			// The shard stores its rows as one flat gather-only table, so a
			// sub-update always targets table 0 of the shard model.
			errs[s] = r.tr.Update(s, runtime.TableUpdate{Table: 0, Rows: flatRows[s], Grads: grads})
			// Invalidate AFTER the shard committed: the version bump inside
			// invalidate also voids every in-flight fill probed before
			// now, so no reader can park a pre-update row in the cache.
			if cache := r.caches[s]; cache != nil && errs[s] == nil {
				cache.invalidate(flatRows[s])
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if r.applied != nil {
		r.applied(up)
	}
	return nil
}
