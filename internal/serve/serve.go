// Package serve turns a deployed recommender model into a concurrent
// embedding server: the serving runtime a TensorNode-equipped host would run
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
// The server also accepts online embedding updates (Update). An update
// never queues: it applies on the goroutine that issues it, which returns
// once the node's tables hold it, so the batcher carries reads only and an
// update never waits behind them.
//
// A server holds exactly one deployment. It offloads only the embedding
// stage: the caller runs the DNN (recsys.Model.InferFromEmbeddings) over
// the pooled tensor EmbedInto returns, as the GPU does with what a
// TensorNode returns. Replication belongs to the fleet (remote replica
// groups), not to one server.
//
// A read is a submit (put the request on the queue) followed by an await
// (block for its reply). EmbedInto does both; StartEmbedInto and
// Pending.Wait expose the two halves, so a caller with sub-requests for
// several servers (the cluster router) can queue all of them before it
// waits.
//
// Every read's queue and total latency, and every update's total latency,
// is recorded; Instrument's
// tensordimm_serve_*_seconds series report p50/p95/p99 percentiles, the
// numbers a serving SLO is written against.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/gate"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
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
	// carry. Zero defaults to the deployment's MaxBatch; negative is
	// invalid.
	MaxBatch int
	// Workers is the number of merged batches executed concurrently — the
	// server's only goroutines. Zero defaults to the deployment's execution
	// slots; negative is invalid.
	Workers int
}

// queueDepth is the submission queue capacity: submissions beyond it block.
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
func (c Config) withDefaults(dep *runtime.Deployment) Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = dep.Geometry().MaxBatch
	}
	if c.Workers == 0 {
		c.Workers = dep.Slots()
	}
	return c
}

// request is one submitted read, pending or in flight: its rows and batch,
// and dst, the caller-provided buffer the worker writes the result into.
// Requests are pooled: the submitter puts its request back only after
// reading the reply, so a pooled request is never aliased by two in-flight
// submissions.
type request struct {
	rows  [][]int
	batch int
	dst   []float32
	enq   time.Time
	span  telemetry.Span // per-hop trace slot, recycled with the request
	done  chan error
}

// reqPool recycles request objects (with their reply channels) across
// submissions; the steady-state submit path allocates nothing.
var reqPool = sync.Pool{New: func() any { return &request{done: make(chan error, 1)} }}

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
	r.rows, r.dst, r.batch = nil, nil, 0
	reqPool.Put(r)
}

// workerScratch is one worker goroutine's private scratch: the member reads
// of the batch it is forming or executing, the merged per-table index
// lists, and the embedding read-back buffer. Sized once from the server
// geometry, reused for every batch.
type workerScratch struct {
	reqs   []*request
	merged [][]int
	emb    []float32
}

// Server owns one Deployment and serves concurrent embedding reads against
// it with dynamic micro-batching, and updates on their callers' goroutines.
// Create with New or Deploy, call EmbedInto or Update from any number of
// goroutines, and Close when done — Close releases the deployment.
type Server struct {
	cfg  Config
	dep  *runtime.Deployment
	geom wire.Geometry // the request contract, MaxBatch = cfg.MaxBatch

	// gate admits every entry point until Close: a read until it is
	// enqueued, an update or a restore until it has applied.
	gate     gate.Gate
	queue    chan *request
	workerWG sync.WaitGroup

	// tblMu guards table memory against Restore: merged-batch gathers hold
	// it shared, Restore holds it exclusively. Updates need no share — their
	// scatter-adds are NMP instructions, and each core runs a SCATTER_ADD
	// with its lock held alone, gathers with it shared — but Restore writes
	// table rows directly (WriteFloats bypasses the cores by design; see
	// Restore) and would otherwise tear rows under a concurrent gather.
	// Writes are ordered against each other by the deployment's own update
	// lock, not here.
	tblMu sync.RWMutex

	requests atomic.Uint64
	samples  atomic.Uint64
	batches  atomic.Uint64
	failures atomic.Uint64
	updates  atomic.Uint64
	upRows   atomic.Uint64
	queueLat *telemetry.Histogram // read submission to execution start
	totalLat *telemetry.Histogram // submission to result delivery, reads and updates

	// tracer is nil until Instrument wires the server into a registry;
	// every use is nil-guarded, so an uninstrumented server pays a single
	// pointer check per site.
	tracer *telemetry.Tracer

	// node is the TensorNode Deploy built for the server, closed by Close;
	// nil when the caller owns the deployment's node (New).
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

// New validates the deployment and the batching cap against its capacity,
// starts the worker goroutines, and returns a serving handle.
func New(cfg Config, dep *runtime.Deployment) (*Server, error) {
	if dep == nil {
		return nil, fmt.Errorf("serve: a deployment is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(dep)
	geom := dep.Geometry()
	if cfg.MaxBatch > geom.MaxBatch {
		return nil, fmt.Errorf("serve: MaxBatch %d exceeds the deployment's capacity %d",
			cfg.MaxBatch, geom.MaxBatch)
	}
	geom.MaxBatch = cfg.MaxBatch
	s := &Server{
		cfg:      cfg,
		dep:      dep,
		geom:     geom,
		queue:    make(chan *request, queueDepth),
		queueLat: telemetry.NewHistogram(),
		totalLat: telemetry.NewHistogram(),
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
		PerDIMMBytes: runtime.PerDIMMBytes(m.Cfg, dimms, cfg.MaxBatch, cfg.Workers, lanes),
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

// Node returns the TensorNode Deploy built for the server, or nil for a
// server made with New over a caller-owned deployment.
func (s *Server) Node() *node.Node { return s.node }

// EmbedInto runs the embedding stage for one request of `batch` samples
// and writes the pooled [batch, tables*dim] values row-major into dst, which is grown if its capacity is insufficient and
// returned re-sliced to exactly batch*tables*dim. A caller that reuses the
// returned slice across requests performs zero heap allocations in steady
// state; the server writes to dst only between submission and return and
// never retains it. perTableRows holds batch x reduction row indices per
// table. The output is bit-identical to the golden model's
// Embedding.Forward regardless of how the request was batched with others.
// Safe for concurrent use (with distinct dst buffers).
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
	if err := s.geom.CheckRead(perTableRows, batch); err != nil {
		return Pending{}, fmt.Errorf("serve: %w", err)
	}
	need := batch * s.geom.Width()
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
	if err := await(p.req); err != nil {
		return nil, err
	}
	return dst, nil
}

// Geometry reports the served model's shape and limits: table count,
// pooling reduction, embedding dimension, table height, and the per-request
// batch cap. The network serving plane announces exactly these numbers in
// its wire handshake, so a remote client can validate and size every
// request without out-of-band configuration.
func (s *Server) Geometry() wire.Geometry { return s.geom }

// Update applies a batch of embedding-table gradient updates on the
// calling goroutine, in slice order, and returns once the node's tables —
// the only copy — hold it: every read started after Update returns
// observes the update. It never queues behind reads; the deployment orders
// it against every other write (runtime.Deployment.ApplyUpdates), and the
// NMP cores order its scatter-adds against concurrent gathers. Safe for
// concurrent use.
func (s *Server) Update(ups []runtime.TableUpdate) error {
	if err := runtime.CheckUpdates(ups, s.geom); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	start := time.Now()
	if !s.gate.Enter() {
		return errClosed
	}
	defer s.gate.Exit()
	if err := s.dep.ApplyUpdates(ups); err != nil {
		s.failures.Add(1)
		return fmt.Errorf("serve: update failed: %w", err)
	}
	rows := 0
	for _, up := range ups {
		rows += len(up.Rows)
	}
	s.updates.Add(1)
	s.upRows.Add(uint64(rows))
	s.totalLat.Observe(time.Since(start).Seconds())
	return nil
}

// errClosed is what every entry point returns once Close has begun.
var errClosed = errors.New("serve: server is closed")

// submit queues one read without waiting for its result. A refused request
// is recycled here. The send happens outside the gate's lock, which would
// otherwise serialize submitters: Close closes the queue only after every
// admitted submit has enqueued.
func (s *Server) submit(req *request) error {
	if !s.gate.Enter() {
		putRequest(req)
		return errClosed
	}
	s.queue <- req
	s.gate.Exit()
	return nil
}

// await blocks for a submitted request's result and recycles the request.
// The reply channel is buffered, so a worker never waits for a submitter
// that has not reached await yet.
func await(req *request) error {
	err := <-req.done
	putRequest(req)
	return err
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
		reqs:   make([]*request, 0, s.cfg.MaxBatch),
		merged: make([][]int, s.geom.Tables),
		emb:    make([]float32, s.cfg.MaxBatch*s.geom.Width()),
	}
	for t := range ws.merged {
		ws.merged[t] = make([]int, 0, s.cfg.MaxBatch*s.geom.Reduction)
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
		for total < s.cfg.MaxBatch {
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

// execute runs one merged batch: the merged embedding for the member
// reads, fanning results back out to them. ws.reqs holds the members, total
// their summed samples.
func (s *Server) execute(ws *workerScratch, total int) {
	start := time.Now()
	reads := ws.reqs
	for _, r := range reads {
		s.queueLat.Observe(start.Sub(r.enq).Seconds())
		if s.tracer != nil {
			r.span.BeginAt(r.enq)
			r.span.MarkAt(hopQueue, start)
		}
	}

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

	// A lone read reads back straight into its own destination, which is
	// exactly total samples wide: no split copy.
	lone := len(reads) == 1
	emb := ws.emb[:total*s.geom.Width()]
	if lone {
		emb = reads[0].dst
	}
	s.tblMu.RLock()
	err := s.dep.RunEmbeddingInto(emb, ws.merged, total)
	s.tblMu.RUnlock()
	if err != nil {
		s.failures.Add(uint64(len(reads)))
		for _, r := range reads {
			r.done <- fmt.Errorf("serve: merged batch of %d failed: %w", total, err)
		}
		return
	}
	s.batches.Add(1)

	// Split: each member request gets its slice of the embedding rows
	// copied into its destination buffer.
	off := 0
	for _, r := range reads {
		if !lone {
			copy(r.dst, emb[off*s.geom.Width():(off+r.batch)*s.geom.Width()])
		}
		off += r.batch
		s.requests.Add(1)
		s.samples.Add(uint64(r.batch))
		s.reply(r)
	}
}

// reply records a successful request's total latency and closes its trace
// at one clock reading, so the exec hop ends exactly where the total does,
// then delivers the reply. Trace bookkeeping strictly precedes the send:
// the submitter recycles the request (and its span slot) as soon as the
// reply lands.
func (s *Server) reply(r *request) {
	now := time.Now()
	s.totalLat.Observe(now.Sub(r.enq).Seconds())
	if s.tracer != nil {
		r.span.MarkAt(hopExec, now)
		s.tracer.FinishAt(&r.span, now)
	}
	r.done <- nil
}

// Restore overwrites rows of one table with absolute embedding values on
// the deployment's node table — the serving-side half of a durable snapshot
// install. Like Update it runs on the caller's goroutine, never queued,
// and Close waits for it before releasing the deployment. The deployment
// orders it against every update (runtime.Deployment.RestoreRows). Safe
// for concurrent use with reads and updates: the table barrier (tblMu)
// excludes in-flight gathers while rows are overwritten, so a read-only
// router hitting this replica mid-restore can never observe a torn row.
func (s *Server) Restore(table int, rows []int, vals []float32) error {
	if err := s.geom.CheckRows(table, rows, len(vals)); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	if !s.gate.Enter() {
		return errClosed
	}
	defer s.gate.Exit()
	s.tblMu.Lock()
	defer s.tblMu.Unlock()
	if err := s.dep.RestoreRows(table, rows, vals); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	return nil
}

// Close stops accepting requests, waits for every update and restore
// already running, drains every read already submitted (queued reads
// execute and reply, so a caller blocked in EmbedInto always gets its
// result), stops the workers, and releases the deployment (and closes the
// node, for a server built by Deploy). It is idempotent, and every call —
// including concurrent ones — returns only after the drain has completed;
// requests made after Close fail fast.
func (s *Server) Close() error {
	// The gate has drained: every admitted read has reached the queue, every
	// write has applied.
	return s.gate.Close(func() error {
		close(s.queue)
		s.workerWG.Wait()
		err := s.dep.Release()
		if s.node != nil {
			s.node.Close()
		}
		return err
	})
}

// Metrics is the part of the server's counters the benchmark harness
// (bench/) reads between intervals; bench/ is its only reason to exist.
// Every other reader uses the tensordimm_serve_* series Instrument
// registers.
type Metrics struct {
	Samples      uint64                      // total samples across completed read requests
	Batches      uint64                      // merged executions
	QueueLatency telemetry.HistogramSnapshot // submission to execution start, in seconds
}

// Metrics snapshots the counters bench/ reads. Safe to call at any time,
// including after Close.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Samples:      s.samples.Load(),
		Batches:      s.batches.Load(),
		QueueLatency: s.queueLat.Snapshot(),
	}
}
