// Package netserve is the network front of the serving stack: a TCP
// server speaking the internal/wire protocol in front of a
// cluster.Cluster or a single serve.Server. It is what turns the
// in-process serving layers into a datacenter-shaped service — the RPC
// boundary RecNMP-style systems put between the front-end fleet and the
// embedding tier.
//
// Structure per connection: one reader goroutine decodes frames and one
// writer goroutine flushes the connection's wire.Writer, so requests
// pipeline — a client may have many requests outstanding and responses
// complete out of order, correlated by request id. A read for an
// in-process backend (a *cluster.Cluster, or a serve.Server through
// ServerBackend: one whose StartEmbedInto half New finds) runs on the
// reader itself: it never waits on another process, so a hand-off would
// only add a goroutine boundary. The reader starts every read of a frame
// before it awaits any, so the sub-requests of a BATCH reach serve's
// self-batching workers (the shard servers', behind a cluster) together
// and merge exactly like concurrent in-process ones. A read for a backend
// whose reads wait on the network (a replica router, through the
// SendEmbedInto half New finds) is split at the same seam: the reader puts
// it on the wire, and a server-wide pool of executor goroutines only
// awaits, encodes and answers it, so a frame's sub-requests leave
// together while the await overlaps the round trip. Updates, SYNC and
// RESTORE, and every read of a backend with neither half, run on that
// pool from the start.
//
// Admission control: the server holds a bounded in-flight budget
// (Config.MaxInflight). A request arriving with the budget exhausted is
// shed immediately with an OVERLOADED error frame — fail-fast, so a
// saturated server answers in microseconds instead of queueing into
// timeout, and the client can back off or retry against a replica. Shed
// requests are counted in tensordimm_net_shed_total.
//
// Shutdown: Close stops accepting new connections, half-closes every
// live connection's read side (no new requests), lets everything already
// admitted execute and flush its response, then tears the connections
// and executors down. A caller blocked in netclient therefore always
// gets its response during a graceful drain.
//
// The steady-state embed (read) path — read frame, decode, admit,
// execute, encode, write — performs no heap allocations: tasks and their
// decode buffers are pooled, encoders append into reused buffers, and the
// backend's *Into path writes straight into the task's response scratch
// (TestNetRoundTripZeroAlloc pins it; see ARCHITECTURE.md, "Memory
// discipline"). The update path allocates a few tensor headers per
// request (convertUpdates), mirroring the in-process write path.
package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/runtime"
	"tensordimm/internal/serve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// Hop indices of the net tracer: executor-queue wait (zero for a read run
// on the reader; for a wire read it holds the send and the hand-off to the
// pool), backend execution (including response encoding), and
// flush — completion to the response appended to the connection's
// wire.Writer, which is the wait for the Writer's mutex; the writer's yield
// and the write syscall come after.
const (
	netHopQueue = iota
	netHopExec
	netHopFlush
)

// Backend is the serving engine a network server fronts. A
// *cluster.Cluster satisfies it as is, a serve.Server through the
// ServerBackend adapter; tests substitute stubs to exercise admission and
// drain behavior deterministically.
type Backend interface {
	// Geometry reports the model shape and batch cap the wire handshake
	// announces.
	Geometry() wire.Geometry
	// EmbedInto computes the pooled embedding for one request into dst,
	// exactly like serve.Server.EmbedInto / cluster.EmbedInto.
	EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error)
	// ApplyUpdates applies one gradient-update batch.
	ApplyUpdates(ups []runtime.TableUpdate) error
}

// RestoreBackend is the optional backend extension behind the RESTORE
// op: installing absolute row values from a durable snapshot, the cold
// half of a replica router's crash recovery. Backends that lack it (a
// cluster.Cluster, test stubs) answer RESTORE frames with BAD_REQUEST —
// only shard replicas fronting a serve.Server are restore targets.
type RestoreBackend interface {
	// Restore overwrites rows of one table with absolute embedding values
	// (vals holds len(rows) embeddings, row-major) on every replica.
	Restore(table int, rows []int, vals []float32) error
}

// serverBackend adapts a serve.Server.
type serverBackend struct{ s *serve.Server }

// Restore implements RestoreBackend.
func (b serverBackend) Restore(table int, rows []int, vals []float32) error {
	return b.s.Restore(table, rows, vals)
}

// Geometry implements Backend.
func (b serverBackend) Geometry() wire.Geometry { return b.s.Geometry() }

// EmbedInto implements Backend.
func (b serverBackend) EmbedInto(dst []float32, rows [][]int, batch int) ([]float32, error) {
	return b.s.EmbedInto(dst, rows, batch)
}

// ApplyUpdates implements Backend.
func (b serverBackend) ApplyUpdates(ups []runtime.TableUpdate) error { return b.s.Update(ups) }

// StartEmbedInto is the submit half New looks for: it marks the backend as
// in-process.
func (b serverBackend) StartEmbedInto(dst []float32, rows [][]int, batch int) (serve.Pending, error) {
	return b.s.StartEmbedInto(dst, rows, batch)
}

// waiter is a read started on the reader and not yet awaited: a
// serve.Pending, or a cluster.Pending of a *cluster.Cluster or a replica
// router.
type waiter interface{ Wait() ([]float32, error) }

// startFunc is the submit half of a backend's read.
type startFunc func(dst []float32, rows [][]int, batch int) (waiter, error)

// inProcess returns the submit half of a backend whose reads never wait on
// another process: one with a StartEmbedInto that returns a serve.Pending
// (ServerBackend) or a cluster.Pending (a *cluster.Cluster), itself or
// through a wrapper that forwards it. Any other backend gets nil, and its
// reads run on the executor pool.
func inProcess(b Backend) startFunc {
	switch be := b.(type) {
	case interface {
		StartEmbedInto([]float32, [][]int, int) (serve.Pending, error)
	}:
		return startOf(be.StartEmbedInto)
	case interface {
		StartEmbedInto([]float32, [][]int, int) (cluster.Pending, error)
	}:
		return startOf(be.StartEmbedInto)
	}
	return nil
}

// onWire returns the submit half of a backend whose reads wait on the
// network: one with a SendEmbedInto that returns a cluster.Pending (a
// replica router), itself or through a wrapper that forwards it. Such a
// read is sent on the connection's reader and awaited on the executor
// pool, since awaiting the round trip on the reader would stall every
// later frame of the connection. Any other backend gets nil.
func onWire(b Backend) startFunc {
	if be, ok := b.(interface {
		SendEmbedInto([]float32, [][]int, int) (cluster.Pending, error)
	}); ok {
		return startOf(be.SendEmbedInto)
	}
	return nil
}

// startOf adapts a backend's typed submit half to a startFunc.
func startOf[P waiter](start func([]float32, [][]int, int) (P, error)) startFunc {
	return func(dst []float32, rows [][]int, batch int) (waiter, error) {
		p, err := start(dst, rows, batch)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}

// ServerBackend adapts a single-node serve.Server to the Backend
// interface.
func ServerBackend(s *serve.Server) Backend { return serverBackend{s} }

// ClusterBackend returns a sharded cluster.Cluster as a Backend; the
// cluster implements the interface itself.
func ClusterBackend(c *cluster.Cluster) Backend { return c }

// Config tunes the network server. The zero value of every field selects
// a documented default at New; negative values are invalid. The frame
// limit is fixed at wire.DefaultMaxFrameBytes in both directions: the
// handshake announces it, each end enforces the smaller of its own and
// its peer's, and New rejects a backend geometry whose maximal request or
// response would not fit.
type Config struct {
	// MaxInflight is the admission budget: the number of embed/update
	// requests simultaneously admitted (queued or executing) across all
	// connections, reads an in-process backend runs on a connection's
	// reader included. A request beyond it is shed with an OVERLOADED error
	// frame instead of queueing. It also sizes the executor pool, which
	// carries updates, SYNC and RESTORE, the await of every read the
	// reader put on the wire, and every read of a backend with no submit
	// half, so none of them waits behind another. Zero defaults to 256;
	// negative is invalid.
	MaxInflight int
	// Role is the serving role announced in the handshake. The zero value
	// (wire.RoleStandalone) is a self-contained endpoint; wire.RoleReplica
	// marks this server as one replica of a shard behind a replica router,
	// whose sequenced SYNC frames are its write path. The role does not
	// change what the server accepts — a replica still answers plain
	// updates — but a router uses it to sanity-check its target set, and
	// operators to tell the deployments apart.
	Role wire.Role
	// Registry, when non-nil, wires the server into the telemetry plane:
	// New registers the net_* series (admission, shed/expired, batching,
	// request-latency histogram) and a queue/exec/flush request tracer,
	// and a METRICS response is the registry's versioned snapshot. Nil
	// leaves the server uninstrumented at zero cost, and METRICS answers
	// with an empty snapshot.
	Registry *telemetry.Registry
}

// writeTimeout bounds one response-frame write. A client that stops reading
// fills its socket buffer; without this bound its writer goroutine would
// block forever and a graceful drain could never finish. On expiry the
// connection is dropped (the client was not consuming responses anyway).
const writeTimeout = 30 * time.Second

// task is one in-flight request: the decoded arguments, the destination
// scratch the backend writes into, and the encoded response frame. Tasks
// are pooled server-wide; a task is owned by exactly one goroutine at a
// time: the reader, then an executor for work the pool carries. An
// in-process read never leaves the reader: it is started there and
// awaited there, after the rest of its frame or before the reader blocks
// on a credit. A wire read is started on the reader and handed, with its
// pend, to an executor that awaits it. Whichever goroutine appends the
// response to the connection's Writer recycles the task.
type task struct {
	c  *conn
	op wire.Op
	id uint64

	// deadline bookkeeping (OpEmbed and OpUpdate): the request's budget in
	// microseconds (0 = none) and the frame's arrival time. submit checks
	// the budget before admission; the executor re-checks it after the queue
	// wait — the dominant expiry cause under load — and sheds expired work
	// with DEADLINE_EXCEEDED instead of executing a response nobody is
	// waiting for. A wire read the reader started is exempt from that second
	// check: it is already on the wire, and the await must run to release
	// it. submit's check and the backend's own deadline (a replica router's
	// Config.Deadline) bound it instead.
	budget  wire.Budget
	arrived time.Time
	// start is when execution began, the latency histogram's origin: the
	// executor's pickup, or submit's clock reading for a read the reader
	// started (in-process or on the wire).
	start time.Time

	// embed arguments + result scratch
	batch int
	rows  [][]int
	idx   []int
	dst   []float32
	// pend is a read started on the reader and not yet awaited
	pend waiter

	// update arguments (decoded views + converted headers)
	upd wire.UpdateScratch
	ups []runtime.TableUpdate
	// sync / restore sequence number (OpSync and OpRestore)
	seq uint64
	// restore arguments (OpRestore only): rest views upd's arenas
	commit bool
	rest   wire.Update

	// encoded response frame, copied verbatim into the conn's Writer
	resp []byte

	// per-hop trace slot, finished before the response is appended and
	// recycled with the task (see finishSpan)
	span telemetry.Span
}

// conn is one accepted connection: its reader goroutine, the Writer its
// responses are appended to, the writer goroutine flushing it, and the
// accounting that bounds and drains what the connection owes.
type conn struct {
	srv *Server
	nc  net.Conn
	w   *wire.Writer // made by the reader at the handshake, before the writer starts
	// credit holds a token per response taken on and not yet written: the
	// reader blocks when none is left, the writer returns one per flushed
	// frame. It bounds what a client that never reads can make the server
	// buffer, while Append never blocks an executor.
	credit chan struct{}
	// owed and pending both count tasks in the executor pool whose response
	// is not yet appended: the reader's drain waits on owed, and the writer
	// yields once before a flush while pending is positive. Reads on the
	// reader count in neither: the reader appends their responses itself.
	owed    sync.WaitGroup
	pending atomic.Int64
	// started holds the reads of the current frame the reader started on an
	// in-process backend, awaited in order once the frame is dispatched (or
	// before the reader waits for a credit); reused across frames.
	started []*task
	done    chan struct{} // closed after the drain wait: last flush, teardown
}

// Server is the network serving plane: accept loops feed per-connection
// reader/writer goroutines, which feed a bounded executor pool in front
// of the backend. Create with New, start with Serve (one call per
// listener), and stop with Close, which drains gracefully. The server
// does not own the backend — closing the netserve.Server leaves the
// serve.Server or cluster.Cluster running for its owner to close.
type Server struct {
	cfg       Config
	backend   Backend
	geom      wire.Geometry
	handshake time.Duration // accept to hello written; shorter only in tests

	tasks    chan *task
	taskPool sync.Pool
	workerWG sync.WaitGroup

	// startRead is the submit half of an in-process backend's read, nil for
	// any other backend; with it a read runs on the connection's reader
	// instead of the executor pool. sendRead is the submit half of a backend
	// whose reads wait on the network: the reader sends with it and the
	// executor pool awaits.
	startRead startFunc
	sendRead  startFunc

	inflight atomic.Int64
	draining atomic.Bool

	// updateSeq counts successfully applied update batches (plain and
	// sequenced); every bump is an Add, so a plain update finishing inside
	// a sync's window is never overwritten. syncMu makes the OpSync
	// check-apply-bump atomic against other syncs and restores, which is
	// what gives a router's catch-up replay its exactly-once guarantee.
	updateSeq atomic.Uint64
	syncMu    sync.Mutex

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	connWG    sync.WaitGroup
	closeOnce sync.Once

	accepted   atomic.Uint64
	requests   atomic.Uint64
	updates    atomic.Uint64
	syncs      atomic.Uint64
	restores   atomic.Uint64
	pings      atomic.Uint64
	shed       atomic.Uint64
	expired    atomic.Uint64
	failures   atomic.Uint64
	badFrames  atomic.Uint64
	batchesIn  atomic.Uint64
	batchedIn  atomic.Uint64
	batchesOut atomic.Uint64
	batchedOut atomic.Uint64
	lat        *telemetry.Histogram // execution start to response encoded

	// tracer is nil unless Config.Registry was set; every hot-path use is
	// nil-guarded.
	tracer *telemetry.Tracer
}

// instrument registers the server's series on the configured registry:
// func-backed counters over the existing atomics, the in-flight gauge,
// the executor latency histogram, and the queue/exec/flush tracer.
func (s *Server) instrument(reg *telemetry.Registry) {
	reg.Counter("tensordimm_net_accepted_total", "connections accepted", s.accepted.Load)
	reg.Counter("tensordimm_net_requests_total", "embed requests served", s.requests.Load)
	reg.Counter("tensordimm_net_updates_total", "update requests applied", s.updates.Load)
	reg.Counter("tensordimm_net_syncs_total", "sequenced SYNC updates applied", s.syncs.Load)
	reg.Counter("tensordimm_net_restores_total", "RESTORE rounds applied", s.restores.Load)
	reg.Counter("tensordimm_net_pings_total", "pings answered", s.pings.Load)
	reg.Counter("tensordimm_net_shed_total", "requests shed by admission control (OVERLOADED)", s.shed.Load)
	reg.Counter("tensordimm_net_expired_total", "requests shed with a lapsed deadline (DEADLINE_EXCEEDED)", s.expired.Load)
	reg.Counter("tensordimm_net_failures_total", "requests failed", s.failures.Load)
	reg.Counter("tensordimm_net_bad_frames_total", "protocol violations", s.badFrames.Load)
	reg.Counter("tensordimm_net_batches_in_total", "BATCH request frames received", s.batchesIn.Load)
	reg.Counter("tensordimm_net_batched_in_total", "sub-requests arrived inside BATCH frames", s.batchedIn.Load)
	reg.Counter("tensordimm_net_batches_out_total", "coalesced BATCH response frames written", s.batchesOut.Load)
	reg.Counter("tensordimm_net_batched_out_total", "responses shipped inside BATCH frames", s.batchedOut.Load)
	reg.Gauge("tensordimm_net_inflight", "requests admitted and not yet completed", func() float64 {
		return float64(s.inflight.Load())
	})
	reg.Gauge("tensordimm_net_update_seq", "update batches applied (the handshake sequence number)", func() float64 {
		return float64(s.updateSeq.Load())
	})
	reg.RegisterHistogram("tensordimm_net_request_seconds", "request latency (execution start: executor pickup, or admission for a read the reader starts, which then includes the rest of its frame in process, and the executor hand-off and the round trip on the wire; to response encoded)", s.lat)
	s.tracer = reg.Tracer("net", 0, []string{"queue", "exec", "flush"})
}

// New validates the config against the backend's geometry and returns a
// server ready for Serve. No sockets are opened here.
func New(b Backend, cfg Config) (*Server, error) {
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("netserve: MaxInflight %d is negative (use 0 for the default)", cfg.MaxInflight)
	}
	if cfg.Role != wire.RoleStandalone && cfg.Role != wire.RoleReplica {
		return nil, fmt.Errorf("netserve: unknown role %d", uint8(cfg.Role))
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 256
	}
	geom := b.Geometry()
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("netserve: backend geometry: %w", err)
	}
	// The largest legal frame in either direction must fit the limit, or
	// every maximal request would be "oversized" by configuration.
	maxReq, maxResp := geom.EmbedFrameBytes(geom.MaxBatch)
	if need := max(maxReq, maxResp); wire.DefaultMaxFrameBytes < need {
		return nil, fmt.Errorf("netserve: frame limit %d below the %d B a maximal request/response needs", wire.DefaultMaxFrameBytes, need)
	}
	s := &Server{
		cfg:       cfg,
		backend:   b,
		geom:      geom,
		handshake: wire.HandshakeTimeout,
		tasks:     make(chan *task, cfg.MaxInflight),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
		lat:       telemetry.NewHistogram(),
	}
	s.taskPool.New = func() any { return &task{} }
	s.startRead, s.sendRead = inProcess(b), onWire(b)
	if cfg.Registry != nil {
		s.instrument(cfg.Registry)
	}
	for w := 0; w < cfg.MaxInflight; w++ {
		s.workerWG.Add(1)
		go s.executor()
	}
	return s, nil
}

// Geometry returns the wire geometry the server announces in handshakes.
func (s *Server) Geometry() wire.Geometry { return s.geom }

// Serve accepts connections on l until Close (or a listener error) and
// blocks meanwhile. After Close it returns nil; multiple Serve calls on
// different listeners may run concurrently.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("netserve: server is closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("netserve: accept: %w", err)
		}
		s.startConn(nc)
	}
}

// startConn registers one accepted connection and spawns its reader,
// which starts the writer after the handshake. The handshake deadline is
// set before registering, so a drain's closeRead lands after it; a
// connection arriving during (or after) Close is refused immediately.
func (s *Server) startConn(nc net.Conn) {
	c := &conn{srv: s, nc: nc, credit: make(chan struct{}, s.cfg.MaxInflight+16), done: make(chan struct{})}
	nc.SetDeadline(time.Now().Add(s.handshake))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	s.accepted.Add(1)
	go c.readLoop()
}

// forget removes a finished connection from the server's registry.
func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// takeInflight takes one unit of the in-flight budget, failing fast when
// the budget is exhausted.
func (s *Server) takeInflight() bool {
	for {
		n := s.inflight.Load()
		if n >= int64(s.cfg.MaxInflight) {
			return false
		}
		if s.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// readLoop is a connection's reader goroutine: handshake, then decode and
// dispatch frames until EOF, a protocol violation, or the server's drain
// half-closes the read side. On exit it waits for every response still
// owed to be appended, then hands the connection to the writer for the
// last flush and teardown.
func (c *conn) readLoop() {
	s := c.srv
	defer s.connWG.Done()
	// The hello is read off the raw socket under the handshake deadline: a
	// client sends nothing more until our hello arrives, so a peer that
	// never speaks costs one bound and no read buffer.
	ok := false
	var buf []byte
	if peerMax, hbuf, err := wire.ReadClientHello(c.nc, nil); err == nil {
		c.w = wire.NewWriter(wire.DefaultMaxFrameBytes, peerMax)
		hello := wire.AppendServerHello(hbuf[:0], wire.Hello{
			Geom:          s.geom,
			Role:          s.cfg.Role,
			UpdateSeq:     s.updateSeq.Load(),
			MaxFrameBytes: wire.DefaultMaxFrameBytes,
		})
		if _, err := c.nc.Write(hello); err == nil {
			ok = true
		}
		buf = hello[:0]
	} else if !isDisconnect(err) {
		s.badFrames.Add(1)
	}
	if !ok {
		c.nc.Close()
		s.forget(c)
		return
	}
	// Clearing the deadline would undo a drain's closeRead on a non-TCP
	// conn, so one that began meanwhile is reapplied.
	c.nc.SetReadDeadline(time.Time{})
	if s.draining.Load() {
		closeRead(c.nc)
	}
	// All reads go through a buffered reader so one syscall pulls in many
	// pipelined or coalesced frames; the frame decoder then slices them out
	// of the buffer without further kernel round trips.
	br := bufio.NewReaderSize(c.nc, wire.ReadBufBytes)
	// The reader still holds its own count, so this Add cannot race Close's
	// Wait past zero.
	s.connWG.Add(1)
	go c.writeLoop()
	for {
		var op wire.Op
		var id uint64
		var payload []byte
		var err error
		op, id, payload, buf, err = wire.ReadFrame(br, buf, wire.DefaultMaxFrameBytes)
		if err != nil {
			// Disconnects (EOF, drain half-close, reset) are the normal end
			// of a connection; everything else is a frame-level violation.
			if !isDisconnect(err) {
				s.badFrames.Add(1)
			}
			break
		}
		ok := c.dispatch(op, id, payload, time.Now())
		// A frame's started reads are answered before the next frame is
		// read, and before the drain handover when the frame ended the
		// connection.
		c.awaitStarted()
		if !ok {
			break
		}
	}
	// Drain handover: every response owed must be appended before done
	// closes, and the writer flushes them all before closing the socket.
	c.owed.Wait()
	close(c.done)
}

// isDisconnect reports whether a read error means the peer (or the drain)
// ended the connection, as opposed to a malformed frame: plain or
// mid-frame EOF, a closed socket, a reset, or the read deadline the drain
// fallback sets on non-TCP connections.
func isDisconnect(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// dispatch routes one decoded frame, unpacking BATCH super-frames into
// their sub-requests, all stamped with the frame's arrival time. It
// returns false when the frame is a protocol violation that must close
// the connection.
func (c *conn) dispatch(op wire.Op, id uint64, payload []byte, arrived time.Time) bool {
	s := c.srv
	if op != wire.OpBatch {
		return c.dispatchOne(op, id, payload, arrived)
	}
	it, err := wire.DecodeBatch(payload)
	if err == nil {
		s.batchesIn.Add(1)
		for {
			sop, sid, sp, more := it.Next()
			if !more {
				break
			}
			s.batchedIn.Add(1)
			if !c.dispatchOne(sop, sid, sp, arrived) {
				return false
			}
		}
		err = it.Err()
	}
	if err != nil {
		// A malformed count prefix, or a structural violation inside the
		// batch (truncated interior sub-frame, nested batch, trailing bytes).
		// The outer frame was well-formed, so the stream stays aligned:
		// requests before the damage are answered under their own ids, the
		// damage under the batch id.
		s.failures.Add(1)
		c.replyError(c.getTask(op, id), wire.ErrBadRequest, err.Error())
	}
	return true
}

// dispatchOne routes one non-BATCH request frame (top-level or a batch
// sub-frame). It returns false when the op is unknown, which must close
// the connection.
func (c *conn) dispatchOne(op wire.Op, id uint64, payload []byte, arrived time.Time) bool {
	s := c.srv
	t := c.getTask(op, id)
	var wu []wire.Update
	var err error
	switch op {
	case wire.OpPing:
		s.pings.Add(1)
		t.resp = wire.AppendFrame(t.resp[:0], wire.OpPong, id, nil)
		c.reply(t)
		return true
	case wire.OpMetrics:
		t.resp = wire.AppendFrame(t.resp[:0], wire.OpMetricsResp, id, telemetry.EncodeWirePayload(s.cfg.Registry))
		c.reply(t)
		return true
	case wire.OpEmbed:
		t.arrived = arrived
		t.batch, t.budget, t.rows, t.idx, err = wire.DecodeEmbed(payload, s.geom, t.rows, t.idx)
	case wire.OpUpdate:
		t.arrived = arrived
		if wu, t.budget, err = wire.DecodeUpdate(payload, s.geom, &t.upd); err == nil {
			err = t.convertUpdates(wu, s.geom.Dim)
		}
	case wire.OpSync:
		if t.seq, wu, err = wire.DecodeSync(payload, s.geom, &t.upd); err == nil {
			err = t.convertUpdates(wu, s.geom.Dim)
		}
	case wire.OpRestore:
		t.seq, t.commit, t.rest, err = wire.DecodeRestore(payload, s.geom, &t.upd)
	default:
		// The connection closes, and the task's credit goes with it.
		s.putTask(t)
		s.badFrames.Add(1)
		return false
	}
	if err != nil {
		s.failures.Add(1)
		c.replyError(t, wire.ErrBadRequest, err.Error())
		return true
	}
	c.submit(t)
	return true
}

// convertUpdates re-views the decoded wire updates as runtime.TableUpdate
// headers over the same arenas.
func (t *task) convertUpdates(wu []wire.Update, dim int) error {
	if cap(t.ups) < len(wu) {
		t.ups = make([]runtime.TableUpdate, len(wu))
	}
	t.ups = t.ups[:len(wu)]
	for i, up := range wu {
		grads, err := tensor.FromSlice(up.Grads, len(up.Rows), dim)
		if err != nil {
			return err
		}
		t.ups[i] = runtime.TableUpdate{Table: up.Table, Rows: up.Rows, Grads: grads}
	}
	return nil
}

// submit runs one decoded request through admission control: one whose
// deadline budget already lapsed (in flight, or waiting for a credit) is
// shed with DEADLINE_EXCEEDED before it can consume an in-flight slot, a
// request racing the drain window (Close marked the server draining but
// the read half-close has not reached this connection yet) is refused
// with SHUTTING_DOWN, and the rest are shed with an OVERLOADED error
// frame. An admitted read of an in-process backend runs on the reader
// (startEmbed); an admitted read of a backend that waits on the network
// is put on the wire here and goes to the executor pool to be awaited;
// every other admitted task goes to the pool as it is.
func (c *conn) submit(t *task) {
	s := c.srv
	// submit reads the clock once: the expiry check, the trace's start and,
	// for a read the reader starts, its queue hop and latency origin.
	now := time.Now()
	switch {
	case t.budget.Expired(t.arrived, now):
		s.expired.Add(1)
		c.replyError(t, wire.ErrDeadlineExceeded, "deadline budget exhausted before dispatch")
		return
	case s.draining.Load():
		s.failures.Add(1)
		c.replyError(t, wire.ErrShuttingDown, "server is draining; no new work accepted")
		return
	case !c.admit():
		s.shed.Add(1)
		c.replyError(t, wire.ErrOverloaded, "in-flight budget exhausted; retry after backoff")
		return
	}
	if s.tracer != nil {
		// Embed/update tasks trace from frame arrival; sync/restore tasks
		// (no arrival stamp) trace from admission.
		if t.arrived.IsZero() {
			t.span.BeginAt(now)
		} else {
			t.span.BeginAt(t.arrived)
		}
	}
	if t.op == wire.OpEmbed && s.startRead != nil {
		if c.startEmbed(s.startRead, t, now) {
			c.started = append(c.started, t)
		}
		return
	}
	if t.op == wire.OpEmbed && s.sendRead != nil && !c.startEmbed(s.sendRead, t, now) {
		return
	}
	c.owed.Add(1)
	c.pending.Add(1)
	// Admission bounds senders at MaxInflight, which is exactly the
	// channel's capacity: this send never blocks.
	s.tasks <- t
}

// admit takes one unit of the in-flight budget for the reader. With the
// budget spent and reads of this frame started, it awaits those first, so
// a BATCH wider than the budget is not shed against its own head.
func (c *conn) admit() bool {
	if c.srv.takeInflight() {
		return true
	}
	if len(c.started) == 0 {
		return false
	}
	c.awaitStarted()
	return c.srv.takeInflight()
}

// startEmbed starts an admitted read on the reader with the backend's
// submit half, from now, submit's clock reading, and reports whether it is
// now in flight in t.pend; a read that failed to start is answered at once.
// An in-process read is finished by awaitStarted once the rest of the frame
// is submitted, so a BATCH's reads queue at serve's batcher together; a
// wire read by an executor, so a BATCH's sub-requests leave together.
func (c *conn) startEmbed(start startFunc, t *task, now time.Time) bool {
	s := c.srv
	if s.tracer != nil {
		t.span.MarkAt(netHopQueue, now)
	}
	t.start = now
	p, err := start(t.embedDst(s.geom), t.rows, t.batch)
	if err != nil {
		c.finishEmbed(t, nil, err)
		return false
	}
	t.pend = p
	return true
}

// awaitStarted waits for every in-process read the frame started, in start
// order, and answers each.
func (c *conn) awaitStarted() {
	for i, t := range c.started {
		dst, err := t.pend.Wait()
		t.pend = nil
		c.started[i] = nil
		c.finishEmbed(t, dst, err)
	}
	c.started = c.started[:0]
}

// finishEmbed answers a read the reader settles itself.
func (c *conn) finishEmbed(t *task, dst []float32, err error) {
	c.srv.encodeEmbed(t, dst, err)
	c.srv.finish(t)
	c.reply(t)
}

// reply appends a task's finished response to the connection's Writer and
// recycles the task; the reader answers this way for requests it settles
// itself, without a hand-off. A traced task's span is finished first: once
// Append makes the response visible, the client may read the slow ring.
func (c *conn) reply(t *task) {
	c.srv.finishSpan(t)
	c.w.Append(t.resp)
	c.srv.putTask(t)
}

// replyError answers a task the reader settles with an error frame.
func (c *conn) replyError(t *task, code wire.ErrCode, msg string) {
	t.resp = wire.AppendError(t.resp[:0], t.id, code, msg)
	c.reply(t)
}

// replyOwed is reply for a task the executor pool ran: it also settles
// the task's debt, so the drain and the writer's yield stop waiting on it.
func (c *conn) replyOwed(t *task) {
	c.reply(t)
	c.pending.Add(-1)
	c.owed.Done()
}

// executor is one worker of the server-wide pool: it runs admitted tasks
// against the backend (or awaits a read the reader put on the wire),
// encodes the response, and appends it to the owning connection's Writer.
// The pool carries updates, SYNC and RESTORE, wire reads, and the reads of
// a backend with no submit half.
func (s *Server) executor() {
	defer s.workerWG.Done()
	for t := range s.tasks {
		now := time.Now()
		// The queue hop closes here for expired tasks too — their trace
		// shows exactly where the budget died. For a wire read it includes
		// the send and the hand-off, both overlapping the round trip.
		if s.tracer != nil {
			t.span.MarkAt(netHopQueue, now)
		}
		// A wire read started at submit, its clock with it, and is on the
		// wire already: it is never shed here, since only its await releases
		// what the send took.
		if t.pend == nil {
			t.start = now
			if t.budget.Expired(t.arrived, now) {
				// The budget lapsed in the queue: the client has moved on, so
				// executing would burn backend capacity on a dead response.
				s.expired.Add(1)
				t.resp = wire.AppendError(t.resp[:0], t.id, wire.ErrDeadlineExceeded,
					"deadline budget exhausted in queue")
				s.inflight.Add(-1)
				t.c.replyOwed(t)
				continue
			}
		}
		switch t.op {
		case wire.OpEmbed:
			var dst []float32
			var err error
			if t.pend != nil {
				dst, err = t.pend.Wait()
				t.pend = nil
			} else {
				dst, err = s.backend.EmbedInto(t.embedDst(s.geom), t.rows, t.batch)
			}
			s.encodeEmbed(t, dst, err)
		case wire.OpUpdate:
			if err := s.backend.ApplyUpdates(t.ups); err != nil {
				s.failures.Add(1)
				t.resp = wire.AppendError(t.resp[:0], t.id, wire.CodeOf(err), err.Error())
			} else {
				s.updateSeq.Add(1)
				s.updates.Add(1)
				t.resp = wire.AppendFrame(t.resp[:0], wire.OpUpdateResp, t.id, nil)
			}
		case wire.OpSync:
			t.resp = s.executeSync(t)
		case wire.OpRestore:
			t.resp = s.executeRestore(t)
		}
		s.finish(t)
		t.c.replyOwed(t)
	}
}

// embedDst is the task's response scratch sized for its read.
func (t *task) embedDst(g wire.Geometry) []float32 {
	need := t.batch * g.Width()
	if cap(t.dst) < need {
		t.dst = make([]float32, need)
	}
	return t.dst[:need]
}

// encodeEmbed encodes a finished read's response: the embedding, or the
// backend's failure as an error frame of the class the error carries
// (wire.CodeOf).
func (s *Server) encodeEmbed(t *task, dst []float32, err error) {
	if err != nil {
		s.failures.Add(1)
		t.resp = wire.AppendError(t.resp[:0], t.id, wire.CodeOf(err), err.Error())
		return
	}
	t.dst = dst
	s.requests.Add(1)
	t.resp = wire.AppendEmbedResp(t.resp[:0], t.id, dst)
}

// finish closes an executed task, its response encoded: the latency sample
// and the exec hop end at one clock reading, and its admission slot is
// returned.
func (s *Server) finish(t *task) {
	end := time.Now()
	s.lat.Observe(end.Sub(t.start).Seconds())
	if s.tracer != nil {
		t.span.MarkAt(netHopExec, end)
	}
	s.inflight.Add(-1)
}

// executeSync runs one sequenced update against the seq guard and returns
// the encoded response. The guard under syncMu is what makes a router's
// replay exactly-once: a frame whose sequence number is already behind the
// counter was applied before the previous connection died and is
// acknowledged without reapplying; one exactly at the counter applies and
// advances it; one beyond it means the sender skipped updates, which can
// only produce divergent replicas and is rejected.
func (s *Server) executeSync(t *task) []byte {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	cur := s.updateSeq.Load()
	switch {
	case t.seq < cur:
		s.syncs.Add(1)
		return wire.AppendSyncResp(t.resp[:0], t.id, cur)
	case t.seq > cur:
		s.failures.Add(1)
		return wire.AppendError(t.resp[:0], t.id, wire.ErrBadRequest,
			fmt.Sprintf("sync sequence %d ahead of the server's %d applied updates; replay the gap first", t.seq, cur))
	default:
		if err := s.backend.ApplyUpdates(t.ups); err != nil {
			s.failures.Add(1)
			return wire.AppendError(t.resp[:0], t.id, wire.CodeOf(err), err.Error())
		}
		s.syncs.Add(1)
		return wire.AppendSyncResp(t.resp[:0], t.id, s.updateSeq.Add(1))
	}
}

// executeRestore installs one snapshot chunk under the same lock as the
// sequenced write path, so restores and syncs serialize into one history.
// The sequence guard runs the other way from executeSync: a snapshot must
// be at or ahead of the applied counter — installing one from before the
// server's current state would silently roll back updates the router
// already acknowledged. Only a committing chunk (the snapshot's last)
// moves the counter, so a restore that dies mid-stream leaves the counter
// untouched and the router retries from scratch.
func (s *Server) executeRestore(t *task) []byte {
	rb, ok := s.backend.(RestoreBackend)
	if !ok {
		s.failures.Add(1)
		return wire.AppendError(t.resp[:0], t.id, wire.ErrBadRequest, "backend does not accept snapshot installs")
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	cur := s.updateSeq.Load()
	if t.seq < cur {
		s.failures.Add(1)
		return wire.AppendError(t.resp[:0], t.id, wire.ErrBadRequest,
			fmt.Sprintf("snapshot at sequence %d behind the server's %d applied updates", t.seq, cur))
	}
	if err := rb.Restore(t.rest.Table, t.rest.Rows, t.rest.Grads); err != nil {
		s.failures.Add(1)
		return wire.AppendError(t.resp[:0], t.id, wire.CodeOf(err), err.Error())
	}
	if t.commit {
		s.updateSeq.Store(t.seq)
	}
	s.restores.Add(1)
	return wire.AppendRestoreResp(t.resp[:0], t.id, s.updateSeq.Load())
}

// UpdateSeq reports how many update batches the server has applied — the
// number the handshake announces, against which a replica router decides
// how much of its update log to replay.
func (s *Server) UpdateSeq() uint64 { return s.updateSeq.Load() }

// writeLoop is a connection's writer goroutine: on each doorbell ring it
// flushes the responses appended since its last pass (in completion
// order, not request order — that is the pipelining contract), plain when
// one was ready and coalesced into BATCH frames when several were. When
// responses are still owed it first yields the processor once —
// runnable executors finish and append — and it never waits on a clock.
// When the reader is done it makes a last flush and tears the connection
// down.
func (c *conn) writeLoop() {
	s := c.srv
	defer s.connWG.Done()
	for open := true; open; {
		select {
		case <-c.w.Ready():
			if c.pending.Load() > 0 {
				goruntime.Gosched()
			}
		case <-c.done:
			open = false
		}
		// The write deadline is what keeps a graceful drain finite: a client
		// that stops reading trips it and the connection is dropped.
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		frames, batches, batched, err := c.w.Flush(c.nc)
		if err != nil {
			break
		}
		s.batchesOut.Add(uint64(batches))
		s.batchedOut.Add(uint64(batched))
		for i := 0; i < frames; i++ {
			<-c.credit
		}
	}
	c.nc.Close()
	// After a failed write the reader may be blocked on a credit; keep
	// returning them until its drain finishes. The closed socket ends its
	// reads, and the Writer drops whatever is still appended.
	for {
		select {
		case <-c.credit:
		case <-c.done:
			s.forget(c)
			return
		}
	}
}

// getTask fetches a pooled task stamped for one request, first taking one
// of the connection's credits for the response it will owe. Waiting for a
// credit is the reader's only blocking point besides the socket and an
// in-process backend, and a client that stops reading can make it last
// until the write timeout. The reads the frame started hold server-wide
// admission slots, so they are awaited and answered before the reader
// blocks: a client that does not read can pin only its own credits.
func (c *conn) getTask(op wire.Op, id uint64) *task {
	select {
	case c.credit <- struct{}{}:
	default:
		c.awaitStarted()
		c.credit <- struct{}{}
	}
	t := c.srv.taskPool.Get().(*task)
	t.c, t.op, t.id = c, op, id
	t.budget, t.arrived = 0, time.Time{}
	return t
}

// finishSpan closes a traced task's flush hop, feeds its span to the slow
// ring and resets it, so a second call is a no-op. reply calls it just
// before the append; putTask calls it for a task recycled unanswered.
func (s *Server) finishSpan(t *task) {
	if s.tracer != nil && t.span.Active() {
		now := time.Now()
		t.span.MarkAt(netHopFlush, now)
		s.tracer.FinishAt(&t.span, now)
		t.span.Reset()
	}
}

// putTask recycles a task. Buffers keep their capacity; references into
// per-request state are dropped.
func (s *Server) putTask(t *task) {
	s.finishSpan(t)
	t.c = nil
	t.batch = 0
	s.taskPool.Put(t)
}

// Close stops accepting connections, half-closes every live connection's
// read side so no new requests arrive, waits for every admitted request
// to execute and every owed response to flush, then closes the
// connections and stops the executor pool. It is idempotent and safe to
// call concurrently; every call returns only after the drain completes.
// The backend is not closed — its owner closes it after Close returns.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.mu.Lock()
		s.closed = true
		for l := range s.listeners {
			l.Close()
		}
		conns := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			closeRead(c.nc)
		}
		s.connWG.Wait()
		close(s.tasks)
		s.workerWG.Wait()
	})
	return nil
}

// closeRead half-closes a connection's read side: the reader sees EOF and
// stops accepting requests while the write side stays open for the drain.
// Non-TCP connections (tests use net.Pipe) fall back to an immediate read
// deadline, which readLoop treats the same way.
func closeRead(nc net.Conn) {
	type readCloser interface{ CloseRead() error }
	if rc, ok := nc.(readCloser); ok {
		rc.CloseRead()
		return
	}
	nc.SetReadDeadline(time.Now())
}

// Metrics is the part of the network plane's counters the benchmark
// harness (bench/) reads between intervals; bench/ is its only reason to
// exist. Every other reader uses the tensordimm_net_* series a server
// built with Config.Registry registers.
type Metrics struct {
	Shed       uint64                      // requests shed by admission control (OVERLOADED)
	Expired    uint64                      // requests shed with a lapsed deadline (DEADLINE_EXCEEDED)
	BatchesIn  uint64                      // BATCH request frames received
	BatchedIn  uint64                      // sub-requests that arrived inside BATCH frames
	BatchesOut uint64                      // coalesced BATCH response frames written
	BatchedOut uint64                      // responses that rode inside coalesced frames
	Latency    telemetry.HistogramSnapshot // tensordimm_net_request_seconds, in seconds
}

// Metrics snapshots the counters bench/ reads. Safe at any time,
// including after Close.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Shed:       s.shed.Load(),
		Expired:    s.expired.Load(),
		BatchesIn:  s.batchesIn.Load(),
		BatchedIn:  s.batchedIn.Load(),
		BatchesOut: s.batchesOut.Load(),
		BatchedOut: s.batchedOut.Load(),
		Latency:    s.lat.Snapshot(),
	}
}
