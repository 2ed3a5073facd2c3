// Package serve turns a deployed recommender model into a concurrent
// inference server: the serving runtime a TensorNode-equipped host would run
// in production.
//
// The paper's runtime (Section 4.4) executes one embedding batch at a time.
// Real recommendation traffic arrives as many small independent requests
// (Facebook reports deployed batch sizes of 1-100), and the TensorNode's
// aggregate bandwidth is only realized when enough lookups are in flight —
// the observation RecNMP (Ke et al., 2020) quantifies for production
// traffic. The server closes that gap with two mechanisms:
//
//   - dynamic micro-batching: a worker that picks up a request also takes
//     whatever else is already queued, up to MaxBatch samples, and runs it all
//     as one merged embedding execution. Nothing waits for company: an idle
//     worker starts a lone request at once, and requests coalesce exactly when
//     they queue behind busy workers. The per-sample GATHER/REDUCE semantics
//     are positional, so a merged batch is bit-identical to running each
//     request alone;
//
//   - a worker pool over the deployment's execution slots: each worker runs
//     a merged batch whose per-table programs fan out across the
//     deployment's scratch lanes (tables stripe over disjoint rank
//     partitions, so table-level parallelism is architecturally free).
//
// The server also accepts online embedding updates (Update) through the
// same queue: within a merged batch, member updates apply — to every
// replica, in arrival order — before the merged embedding executes, so an
// update never loses to a read it was coalesced with on the same rows.
//
// Every entry point is a submit (put the request on the queue) followed
// by an await (block for its reply). The blocking calls — Infer, Embed,
// EmbedInto, Update — do both; StartEmbedInto and Pending.Wait expose the
// two halves of an embedding read, so a caller with sub-requests for several
// servers (the cluster router) can queue all of them before it waits.
//
// Every request's queue and total latency is recorded; Metrics reports
// p50/p95/p99 percentiles plus sustained throughput, the numbers a serving
// SLO is written against.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/isa"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
)

// Hop indices of the serve tracer: queue wait (submission to execution
// start) and execution (merged-batch run to reply).
const (
	hopQueue = iota
	hopExec
)

// Config sizes the serving runtime. The zero value of either field selects
// a sensible default at New; negative values are invalid and rejected by New
// (never silently replaced by a default, so a sign bug in a caller surfaces
// as an error).
type Config struct {
	// MaxBatch caps how many samples one merged embedding execution may
	// carry. Zero defaults to the smallest MaxBatch of the deployments;
	// negative is invalid.
	MaxBatch int
	// Workers is the number of merged batches executed concurrently — the
	// server's only goroutines. Zero defaults to the total execution slots
	// across the deployments; negative is invalid.
	Workers int
}

// queueDepth is the submission queue capacity (submissions beyond it block)
// and the cap on one merged batch's member count, which sizes every worker's
// member arrays.
const queueDepth = 256

// validate rejects negative settings. Zero values are legal (they select
// defaults in withDefaults); anything below zero is a caller bug.
func (c Config) validate() error {
	if c.MaxBatch < 0 {
		return fmt.Errorf("serve: MaxBatch %d is negative (use 0 for the default)", c.MaxBatch)
	}
	if c.Workers < 0 {
		return fmt.Errorf("serve: Workers %d is negative (use 0 for the default)", c.Workers)
	}
	return nil
}

// withDefaults fills every zero field with its documented default. It must
// run after validate: it only ever replaces exact zeros.
func (c Config) withDefaults(deps []*runtime.Deployment) Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = deps[0].MaxBatch()
		for _, d := range deps[1:] {
			if d.MaxBatch() < c.MaxBatch {
				c.MaxBatch = d.MaxBatch()
			}
		}
	}
	if c.Workers == 0 {
		for _, d := range deps {
			c.Workers += d.Slots()
		}
	}
	return c
}

// request is one submitted inference or update, pending or in flight.
// Updates carry a non-nil updates slice and contribute zero samples to a
// merged batch; reads carry rows/batch. Embedding reads carry dst, the
// caller-provided buffer the worker writes the result into; inference
// reads leave dst nil and receive a fresh tensor. Requests are pooled: the
// submitter puts its request back only after reading the reply, so a
// pooled request is never aliased by two in-flight submissions.
type request struct {
	rows    [][]int
	batch   int
	dst     []float32 // embedding destination; nil for inference reads
	infer   bool      // run the DNN stage on the merged embedding
	updates []runtime.TableUpdate
	enq     time.Time
	span    telemetry.Span // per-hop trace slot, recycled with the request
	done    chan result
}

type result struct {
	out *tensor.Tensor
	err error
}

// reqPool recycles request objects (with their reply channels) across
// submissions; the steady-state submit path allocates nothing.
var reqPool = sync.Pool{New: func() any { return &request{done: make(chan result, 1)} }}

// getRequest fetches a pooled request stamped with the submission time.
func getRequest() *request {
	r := reqPool.Get().(*request)
	r.enq = time.Now()
	return r
}

// putRequest clears a request's references and recycles it. Only the
// submitter calls it, after the reply has been received — the worker never
// touches a request after sending its result.
func putRequest(r *request) {
	r.rows, r.dst, r.updates, r.infer, r.batch = nil, nil, nil, false, 0
	reqPool.Put(r)
}

// workerScratch is one worker goroutine's private scratch: the members of
// the batch it is forming or executing, their partition into updates and
// reads, the merged per-table index lists, and the embedding read-back
// buffer. Sized once from the server geometry, reused for every batch.
type workerScratch struct {
	reqs   []*request
	ups    []*request
	reads  []*request
	merged [][]int
	emb    []float32
}

// Server owns one or more Deployments of the same model (replicas across
// TensorNode pools) and serves concurrent inference requests against them
// with dynamic micro-batching. Create with New, submit with Infer or Embed
// from any number of goroutines, and Close when done — Close releases the
// owned deployments.
type Server struct {
	cfg  Config
	deps []*runtime.Deployment
	// writeThrough[i] marks deployment i as the first of its golden model:
	// it applies an update or restore to the golden too, later replicas of
	// the same model to their node copy only, so a shared golden absorbs
	// each write exactly once.
	writeThrough []bool

	tables, dim, reduction int // model geometry, cached for the hot path
	width                  int // tables*dim, the embedding row width

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // submits accepted but not yet enqueued
	queue    chan *request

	workerWG sync.WaitGroup

	// closeDone is closed once the first Close has fully drained and
	// released; every Close call waits on it, so no caller returns while
	// queued requests are still pending (see Close).
	closeOnce sync.Once
	closeDone chan struct{}
	closeErr  error

	// upMu serializes update application across workers: an update fans out
	// to every replica, and the fan-out must be atomic so all replicas
	// accumulate updates in one global order and stay bit-identical.
	upMu sync.Mutex

	// tblMu guards table memory against Restore: merged-batch gathers hold
	// it shared, Restore holds it exclusively. Updates need no share — their
	// scatter-adds are NMP instructions and serialize with gathers on each
	// core's mutex — but Restore writes table rows directly (WriteFloats
	// bypasses the cores by design; see Restore) and would otherwise tear
	// rows under a concurrent read from a second, read-only router.
	tblMu sync.RWMutex

	started time.Time
	rr      atomic.Uint64 // round-robin deployment cursor

	requests atomic.Uint64
	samples  atomic.Uint64
	batches  atomic.Uint64
	failures atomic.Uint64
	updates  atomic.Uint64
	upRows   atomic.Uint64
	queueLat *telemetry.Histogram // submission to execution start
	totalLat *telemetry.Histogram // submission to result delivery

	// tracer is nil until Instrument wires the server into a registry;
	// every use is nil-guarded, so an uninstrumented server pays a single
	// pointer check per site.
	tracer *telemetry.Tracer

	// node is the TensorNode Deploy built for the server, closed by Close;
	// nil when the caller owns the deployments' nodes (New).
	node *node.Node
}

// Instrument registers the server's series on a telemetry registry:
// func-backed counters over the existing atomics, queue/total latency
// histograms, and a request tracer with queue and exec hops. The labels
// distinguish multiple servers on one registry (e.g. shard="0"). Call
// once, before the traffic it should observe — registration is not
// synchronized against the hot path.
func (s *Server) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.Counter("tensordimm_serve_requests_total", "read requests completed successfully", s.requests.Load, labels...)
	reg.Counter("tensordimm_serve_samples_total", "samples served across completed reads", s.samples.Load, labels...)
	reg.Counter("tensordimm_serve_batches_total", "merged batches executed", s.batches.Load, labels...)
	reg.Counter("tensordimm_serve_failures_total", "requests failed", s.failures.Load, labels...)
	reg.Counter("tensordimm_serve_updates_total", "update requests applied", s.updates.Load, labels...)
	reg.Counter("tensordimm_serve_update_rows_total", "embedding rows updated", s.upRows.Load, labels...)
	reg.RegisterHistogram("tensordimm_serve_queue_seconds", "submission-to-execution queue wait", s.queueLat, labels...)
	reg.RegisterHistogram("tensordimm_serve_total_seconds", "submission-to-reply request latency", s.totalLat, labels...)
	s.tracer = reg.Tracer("serve", 0, []string{"queue", "exec"}, labels...)
}

// New validates the deployments (same model geometry everywhere, batching
// cap within every deployment's capacity), starts the worker goroutines,
// and returns a serving handle.
func New(cfg Config, deps ...*runtime.Deployment) (*Server, error) {
	if len(deps) == 0 {
		return nil, fmt.Errorf("serve: at least one deployment required")
	}
	ref := deps[0].Model.Cfg
	for i, d := range deps[1:] {
		c := d.Model.Cfg
		if c.Tables != ref.Tables || c.Reduction != ref.Reduction ||
			c.EmbDim != ref.EmbDim || c.TableRows != ref.TableRows ||
			c.Mean != ref.Mean || c.Op != ref.Op {
			return nil, fmt.Errorf("serve: deployment %d serves a different model geometry than deployment 0", i+1)
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(deps)
	if cfg.MaxBatch <= 0 {
		return nil, fmt.Errorf("serve: MaxBatch must be positive")
	}
	for i, d := range deps {
		if d.MaxBatch() < cfg.MaxBatch {
			return nil, fmt.Errorf("serve: MaxBatch %d exceeds deployment %d's capacity %d",
				cfg.MaxBatch, i, d.MaxBatch())
		}
	}
	s := &Server{
		cfg:       cfg,
		deps:      deps,
		tables:    ref.Tables,
		dim:       ref.EmbDim,
		reduction: ref.Reduction,
		width:     ref.Tables * ref.EmbDim,
		queue:     make(chan *request, queueDepth),
		closeDone: make(chan struct{}),
		started:   time.Now(),
		queueLat:  telemetry.NewHistogram(),
		totalLat:  telemetry.NewHistogram(),
	}
	seen := make(map[*recsys.Model]bool, len(deps))
	for _, d := range deps {
		s.writeThrough = append(s.writeThrough, !seen[d.Model])
		seen[d.Model] = true
	}
	for w := 0; w < cfg.Workers; w++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// Deploy builds the whole serving stack of one TensorNode holding m: a node
// of dimms TensorDIMMs sized for exactly what the deployment reserves, the
// deployment (one execution slot per worker, one scratch lane per worker
// and table), and a server over it. cfg.MaxBatch and cfg.Workers are
// required. Closing the returned server also closes its node.
func Deploy(m *recsys.Model, dimms int, cfg Config) (*Server, error) {
	if dimms <= 0 || cfg.MaxBatch <= 0 || cfg.Workers <= 0 {
		return nil, fmt.Errorf("serve: Deploy needs positive DIMMs %d, MaxBatch %d and Workers %d",
			dimms, cfg.MaxBatch, cfg.Workers)
	}
	lanes := cfg.Workers * m.Cfg.Tables
	nd, err := node.New(node.Config{
		DIMMs:        dimms,
		PerDIMMBytes: perDIMMBytes(m.Cfg, dimms, cfg.MaxBatch, cfg.Workers, lanes),
	})
	if err != nil {
		return nil, fmt.Errorf("serve: node: %w", err)
	}
	dep, err := runtime.DeployConcurrent(m, nd, cfg.MaxBatch, cfg.Workers, lanes)
	if err != nil {
		nd.Close()
		return nil, fmt.Errorf("serve: deploy: %w", err)
	}
	s, err := New(cfg, dep)
	if err != nil {
		dep.Release()
		nd.Close()
		return nil, err
	}
	s.node = nd
	return s, nil
}

// perDIMMBytes sizes one DIMM of a node for what runtime.DeployConcurrent
// reserves for a model at maxBatch: the tables, two gather buffers per
// lane, one output region per slot, padding slack on each buffer, a stripe
// of alignment margin per allocation, and 50% headroom.
func perDIMMBytes(mc recsys.Config, dimms, maxBatch, slots, lanes int) uint64 {
	emb := uint64(mc.EmbBytes())
	stripe := uint64(dimms) * isa.BlockBytes
	slack := uint64(isa.LanesPerBlock) * stripe
	gather := uint64(maxBatch*mc.Reduction)*emb + slack
	out := uint64(mc.Tables) * (uint64(maxBatch)*emb + slack)
	allocs := uint64(mc.Tables + 2*lanes + slots)
	need := uint64(mc.TotalTableBytes()) + 2*uint64(lanes)*gather + uint64(slots)*out + allocs*stripe
	per := (need + need/2) / uint64(dimms)
	return (per + 4095) / 4096 * 4096
}

// Node returns the TensorNode Deploy built for the server, or nil for a
// server made with New over caller-owned deployments.
func (s *Server) Node() *node.Node { return s.node }

// Infer runs a full inference — near-memory embedding plus the DNN stage —
// for one request of `batch` samples, blocking until the result is ready.
// perTableRows holds batch x reduction row indices per table, exactly as
// Deployment.Infer takes them. Safe for concurrent use.
func (s *Server) Infer(perTableRows [][]int, batch int) (*tensor.Tensor, error) {
	if err := s.validateRead(perTableRows, batch); err != nil {
		return nil, err
	}
	req := getRequest()
	req.rows, req.batch, req.infer = perTableRows, batch, true
	if err := s.submit(req); err != nil {
		return nil, err
	}
	return await(req)
}

// Embed runs only the embedding stage, returning the pooled [batch,
// tables*dim] tensor. The output is bit-identical to
// Deployment.GoldenEmbedding regardless of how the request was batched with
// others. Safe for concurrent use.
func (s *Server) Embed(perTableRows [][]int, batch int) (*tensor.Tensor, error) {
	dst, err := s.EmbedInto(nil, perTableRows, batch)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(dst, batch, s.width)
}

// EmbedInto is Embed writing the pooled [batch, tables*dim] values
// row-major into dst, which is grown if its capacity is insufficient and
// returned re-sliced to exactly batch*tables*dim. A caller that reuses the
// returned slice across requests performs zero heap allocations in steady
// state; the server writes to dst only between submission and return and
// never retains it. Safe for concurrent use (with distinct dst buffers).
func (s *Server) EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error) {
	p, err := s.StartEmbedInto(dst, perTableRows, batch)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// Pending is an embedding read that has been submitted and not yet awaited:
// the handle StartEmbedInto returns. It is owned by the submitting goroutine
// from StartEmbedInto to Wait, which must be called exactly once — the
// handle wraps a pooled request that Wait recycles, and the destination
// buffer belongs to the server until Wait returns.
type Pending struct{ req *request }

// StartEmbedInto is the submit half of EmbedInto: it validates the read,
// sizes dst (grown if its capacity is insufficient), queues the request
// and returns without waiting for the result, so a caller with
// sub-requests for several servers can have all of them queued before it
// blocks on any. It blocks only while the submission queue is full. Close
// drains a started read like any other accepted request: its Wait delivers
// the result even after Close returned.
func (s *Server) StartEmbedInto(dst []float32, perTableRows [][]int, batch int) (Pending, error) {
	if err := s.validateRead(perTableRows, batch); err != nil {
		return Pending{}, err
	}
	need := batch * s.width
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	req := getRequest()
	req.rows, req.batch, req.dst = perTableRows, batch, dst[:need]
	if err := s.submit(req); err != nil {
		return Pending{}, err
	}
	return Pending{req}, nil
}

// Wait is the await half of EmbedInto: it blocks until the server replied
// and returns the destination re-sliced to exactly batch*tables*dim.
func (p Pending) Wait() ([]float32, error) {
	dst := p.req.dst
	if _, err := await(p.req); err != nil {
		return nil, err
	}
	return dst, nil
}

// validateRead checks one read submission against the server geometry.
func (s *Server) validateRead(perTableRows [][]int, batch int) error {
	cfg := s.deps[0].Model.Cfg
	if batch <= 0 || batch > s.cfg.MaxBatch {
		return fmt.Errorf("serve: batch %d out of range [1, %d]", batch, s.cfg.MaxBatch)
	}
	if len(perTableRows) != s.tables {
		return fmt.Errorf("serve: %d index lists for %d tables", len(perTableRows), s.tables)
	}
	for t, rows := range perTableRows {
		if len(rows) != batch*s.reduction {
			return fmt.Errorf("serve: table %d: %d rows for batch %d x reduction %d",
				t, len(rows), batch, s.reduction)
		}
		for _, r := range rows {
			if r < 0 || r >= cfg.TableRows {
				return fmt.Errorf("serve: table %d: row index %d out of range [0, %d)", t, r, cfg.TableRows)
			}
		}
	}
	return nil
}

// Geometry reports the served model's shape and limits: table count,
// pooling reduction, embedding dimension, table height, and the per-request
// batch cap. The network serving plane announces exactly these numbers in
// its wire handshake, so a remote client can validate and size every
// request without out-of-band configuration.
func (s *Server) Geometry() (tables, reduction, dim, tableRows, maxBatch int) {
	return s.tables, s.reduction, s.dim, s.deps[0].Model.Cfg.TableRows, s.cfg.MaxBatch
}

// Update submits a batch of embedding-table gradient updates through the
// same micro-batching queue as reads. Within a merged batch, updates apply
// before the merged embedding executes, so an update never loses to a read
// it was coalesced with on the same rows; across batches, a caller that
// waits for Update to return is guaranteed every later read observes the
// update. The update is applied to every replica deployment (write-through
// to each distinct golden model exactly once), so replicas stay
// bit-identical. Safe for concurrent use.
func (s *Server) Update(ups []runtime.TableUpdate) error {
	cfg := s.deps[0].Model.Cfg
	if len(ups) == 0 {
		return fmt.Errorf("serve: empty update batch")
	}
	for i, up := range ups {
		if up.Table < 0 || up.Table >= cfg.Tables {
			return fmt.Errorf("serve: update %d: table %d out of range [0, %d)", i, up.Table, cfg.Tables)
		}
		if up.Grads == nil || up.Grads.Rank() != 2 || up.Grads.Dim(0) != len(up.Rows) || up.Grads.Dim(1) != cfg.EmbDim {
			return fmt.Errorf("serve: update %d: gradient shape for %d rows of dim %d", i, len(up.Rows), cfg.EmbDim)
		}
		if len(up.Rows) > s.cfg.MaxBatch*cfg.Reduction {
			return fmt.Errorf("serve: update %d: %d rows exceed the %d-row update cap",
				i, len(up.Rows), s.cfg.MaxBatch*cfg.Reduction)
		}
		for _, r := range up.Rows {
			if r < 0 || r >= cfg.TableRows {
				return fmt.Errorf("serve: update %d: row index %d out of range [0, %d)", i, r, cfg.TableRows)
			}
		}
	}
	req := getRequest()
	req.updates = ups
	if err := s.submit(req); err != nil {
		return err
	}
	_, err := await(req)
	return err
}

// submit queues one request without waiting for its result — the one way
// into the queue for reads, inferences and updates alike. A refused request
// is recycled here.
func (s *Server) submit(req *request) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		putRequest(req)
		return fmt.Errorf("serve: server is closed")
	}
	// Holding the lock for the send would serialize submitters; instead the
	// closed flag is checked first and Close closes the queue only after
	// every in-flight submit has enqueued (see Close).
	s.inflight.Add(1)
	s.mu.Unlock()
	s.queue <- req
	s.inflight.Done()
	return nil
}

// await blocks for a submitted request's result and recycles the request.
// The reply channel is buffered, so a worker never waits for a submitter
// that has not reached await yet.
func await(req *request) (*tensor.Tensor, error) {
	r := <-req.done
	putRequest(req)
	return r.out, r.err
}

// worker is the only goroutine between submit and execute. It blocks for
// a first request, takes whatever else is already queued — never waiting for
// more — up to MaxBatch samples, and executes the lot on its private
// scratch. A request that does not fit the forming batch stays with this
// worker as pending and heads its next batch, so it waits for one execution,
// and only when the backlog exceeds MaxBatch. The loop ends once the closed
// queue is drained and pending has run.
func (s *Server) worker() {
	defer s.workerWG.Done()
	ws := &workerScratch{
		reqs:   make([]*request, 0, queueDepth),
		ups:    make([]*request, 0, queueDepth),
		reads:  make([]*request, 0, queueDepth),
		merged: make([][]int, s.tables),
		emb:    make([]float32, s.cfg.MaxBatch*s.width),
	}
	for t := range ws.merged {
		ws.merged[t] = make([]int, 0, s.cfg.MaxBatch*s.reduction)
	}
	var pending *request
	for {
		first := pending
		pending = nil
		if first == nil {
			r, ok := <-s.queue
			if !ok {
				return
			}
			first = r
		}
		ws.reqs = append(ws.reqs[:0], first)
		total := first.batch
	collect:
		// Updates contribute zero samples to total, so the member cap keeps
		// an update flood from growing one merged batch without bound.
		for total < s.cfg.MaxBatch && len(ws.reqs) < queueDepth {
			select {
			case r, ok := <-s.queue:
				if !ok {
					break collect
				}
				if total+r.batch > s.cfg.MaxBatch {
					pending = r
					break collect
				}
				ws.reqs = append(ws.reqs, r)
				total += r.batch
			default:
				break collect
			}
		}
		s.execute(ws, total)
	}
}

// execute runs one merged batch: member updates first (in arrival order,
// so an update never loses to a read it was coalesced with on the same
// rows), then the merged embedding for the member reads on the next
// deployment replica, fanning results back out to the member requests.
// ws.reqs holds the members, total their summed samples.
func (s *Server) execute(ws *workerScratch, total int) {
	start := time.Now()
	for _, r := range ws.reqs {
		wait := start.Sub(r.enq).Seconds()
		s.queueLat.Observe(wait)
		if s.tracer != nil {
			r.span.BeginAt(r.enq)
			r.span.Mark(hopQueue)
		}
	}

	// Partition: updates apply before any member read executes.
	ws.ups, ws.reads = ws.ups[:0], ws.reads[:0]
	for _, r := range ws.reqs {
		if r.updates != nil {
			ws.ups = append(ws.ups, r)
		} else {
			ws.reads = append(ws.reads, r)
		}
	}
	if len(ws.ups) > 0 {
		s.applyUpdates(ws.ups)
	}
	reads := ws.reads
	if len(reads) == 0 {
		return
	}

	dep := s.deps[int(s.rr.Add(1)-1)%len(s.deps)]

	// Merge: concatenate the member requests' per-table row lists. Pooling
	// groups are positional, so sample i of member j lands at output row
	// (offset of j) + i with identical arithmetic to a solo run.
	for t := range ws.merged {
		rows := ws.merged[t][:0]
		for _, r := range reads {
			rows = append(rows, r.rows[t]...)
		}
		ws.merged[t] = rows
	}

	emb := ws.emb[:total*s.width]
	s.tblMu.RLock()
	err := dep.RunEmbeddingInto(emb, ws.merged, total)
	s.tblMu.RUnlock()
	if err != nil {
		s.failures.Add(uint64(len(reads)))
		for _, r := range reads {
			r.done <- result{err: fmt.Errorf("serve: merged batch of %d failed: %w", total, err)}
		}
		return
	}
	s.batches.Add(1)

	// Split: each member request gets its slice of the embedding rows
	// copied into its destination buffer, or — for inference — its own DNN
	// stage over a view of the scratch (row-wise MLP results are
	// independent of co-batched rows).
	off := 0
	for _, r := range reads {
		rows := emb[off*s.width : (off+r.batch)*s.width]
		off += r.batch
		var res result
		if r.infer {
			view, err := tensor.FromSlice(rows, r.batch, s.width)
			if err == nil {
				view, err = dep.Model.InferFromEmbeddings(view)
			}
			res = result{out: view, err: err}
		} else {
			copy(r.dst, rows)
		}
		if res.err != nil {
			s.failures.Add(1)
			r.done <- res
			continue
		}
		s.requests.Add(1)
		s.samples.Add(uint64(r.batch))
		total := time.Since(r.enq).Seconds()
		s.totalLat.Observe(total)
		// Trace bookkeeping strictly precedes the reply send: the
		// submitter recycles the request (and its span slot) as soon as
		// the result lands.
		if s.tracer != nil {
			r.span.Mark(hopExec)
			s.tracer.Finish(&r.span)
		}
		r.done <- res
	}
}

// applyUpdates applies a merged batch's update requests in arrival order,
// replying to each. The server-wide update lock makes the per-request
// replica fan-out atomic: concurrent workers cannot interleave two updates
// across replicas, so every replica accumulates the same global order.
func (s *Server) applyUpdates(reqs []*request) {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	for _, r := range reqs {
		if err := s.fanOutUpdate(r.updates); err != nil {
			s.failures.Add(1)
			r.done <- result{err: fmt.Errorf("serve: update failed: %w", err)}
			continue
		}
		rows := 0
		for _, up := range r.updates {
			rows += len(up.Rows)
		}
		s.updates.Add(1)
		s.upRows.Add(uint64(rows))
		total := time.Since(r.enq).Seconds()
		s.totalLat.Observe(total)
		if s.tracer != nil {
			r.span.Mark(hopExec)
			s.tracer.Finish(&r.span)
		}
		r.done <- result{}
	}
}

// fanOutUpdate applies one update batch to every replica deployment (see
// writeThrough for which of them also update their golden model).
func (s *Server) fanOutUpdate(ups []runtime.TableUpdate) error {
	for i, d := range s.deps {
		var err error
		if s.writeThrough[i] {
			err = d.ApplyUpdates(ups)
		} else {
			err = d.ApplyUpdatesToNode(ups)
		}
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
	}
	return nil
}

// Restore overwrites rows of one table with absolute embedding values on
// every replica deployment (write-through to each distinct golden model
// exactly once) — the serving-side half of a durable snapshot install. It
// bypasses the micro-batching queue: restores are a cold recovery path
// that must not contend with live traffic for batch slots, and the
// server-wide update lock already gives them the same atomicity as a
// fanned-out update. Safe for concurrent use with reads and updates: the
// table barrier (tblMu) excludes in-flight gathers while rows are
// overwritten, so a read-only router hitting a replica mid-restore can
// never observe a torn row.
func (s *Server) Restore(table int, rows []int, vals []float32) error {
	cfg := s.deps[0].Model.Cfg
	if table < 0 || table >= cfg.Tables {
		return fmt.Errorf("serve: restore: table %d out of range [0, %d)", table, cfg.Tables)
	}
	if len(rows) == 0 {
		return fmt.Errorf("serve: restore: empty row set")
	}
	if len(rows) > s.cfg.MaxBatch*cfg.Reduction {
		return fmt.Errorf("serve: restore: %d rows exceed the %d-row cap", len(rows), s.cfg.MaxBatch*cfg.Reduction)
	}
	if len(vals) != len(rows)*cfg.EmbDim {
		return fmt.Errorf("serve: restore: %d values for %d rows of dim %d", len(vals), len(rows), cfg.EmbDim)
	}
	for _, r := range rows {
		if r < 0 || r >= cfg.TableRows {
			return fmt.Errorf("serve: restore: row index %d out of range [0, %d)", r, cfg.TableRows)
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("serve: server is closed")
	}
	s.mu.Unlock()
	s.upMu.Lock()
	defer s.upMu.Unlock()
	s.tblMu.Lock()
	defer s.tblMu.Unlock()
	for i, d := range s.deps {
		var err error
		if s.writeThrough[i] {
			err = d.RestoreRows(table, rows, vals)
		} else {
			err = d.RestoreRowsToNode(table, rows, vals)
		}
		if err != nil {
			return fmt.Errorf("serve: restore: replica %d: %w", i, err)
		}
	}
	return nil
}

// Close stops accepting requests, drains everything already submitted
// (queued requests execute and reply — reads and updates alike, so a caller
// blocked in Infer, Embed or Update always gets its result), stops the
// workers, and releases the owned deployments (and closes the node, for a
// server built by Deploy). It is idempotent, and every
// call — including concurrent ones — returns only after the drain has
// completed; requests submitted after Close fail fast.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.inflight.Wait() // every accepted submit has reached the queue
		close(s.queue)
		s.workerWG.Wait()
		for _, d := range s.deps {
			if err := d.Release(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if s.node != nil {
			s.node.Close()
		}
		close(s.closeDone)
	})
	<-s.closeDone
	return s.closeErr
}

// Metrics is a point-in-time snapshot of the server's counters and latency
// percentiles. All latencies are in seconds.
type Metrics struct {
	Requests    uint64        // read requests completed successfully
	Samples     uint64        // total samples across completed read requests
	Batches     uint64        // merged executions
	Failures    uint64        // requests (reads or updates) completed with an error
	Updates     uint64        // update requests applied successfully
	RowsUpdated uint64        // gradient rows accumulated across applied updates
	Uptime      time.Duration // time since New

	// MeanBatch is the average merged execution size in samples — the
	// coalescing factor micro-batching achieved.
	MeanBatch float64
	// Throughput is completed samples per second of uptime.
	Throughput float64
	// QueueLatency digests time from submission to execution start.
	QueueLatency telemetry.HistogramSnapshot
	// TotalLatency digests time from submission to result delivery.
	TotalLatency telemetry.HistogramSnapshot
}

// Metrics snapshots the server's counters. Safe to call at any time,
// including after Close.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		Requests:     s.requests.Load(),
		Samples:      s.samples.Load(),
		Batches:      s.batches.Load(),
		Failures:     s.failures.Load(),
		Updates:      s.updates.Load(),
		RowsUpdated:  s.upRows.Load(),
		Uptime:       time.Since(s.started),
		QueueLatency: s.queueLat.Snapshot(),
		TotalLatency: s.totalLat.Snapshot(),
	}
	if m.Batches > 0 {
		m.MeanBatch = float64(m.Samples) / float64(m.Batches)
	}
	if sec := m.Uptime.Seconds(); sec > 0 {
		m.Throughput = float64(m.Samples) / sec
	}
	return m
}

// String renders the metrics as a small report.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"requests %d (%d samples, %d failures) in %s\n"+
			"updates %d (%d gradient rows)\n"+
			"merged executions %d (mean batch %.1f)\n"+
			"throughput %.0f samples/s\n"+
			"queue latency  %s\n"+
			"total latency  %s",
		m.Requests, m.Samples, m.Failures, m.Uptime.Round(time.Millisecond),
		m.Updates, m.RowsUpdated,
		m.Batches, m.MeanBatch, m.Throughput,
		m.QueueLatency, m.TotalLatency)
}
