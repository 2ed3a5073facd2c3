// Package netserve is the network front of the serving stack: a TCP
// server speaking the internal/wire protocol in front of a
// cluster.Cluster or a single serve.Server. It is what turns the
// in-process serving layers into a datacenter-shaped service — the RPC
// boundary RecNMP-style systems put between the front-end fleet and the
// embedding tier.
//
// Structure per connection: one reader goroutine decodes frames and one
// writer goroutine encodes responses, so requests pipeline — a client may
// have many requests outstanding and responses complete out of order,
// correlated by request id. Execution happens on a server-wide pool of
// executor goroutines feeding the backend, whose self-batching workers
// coalesce concurrent network requests exactly like in-process ones.
//
// Admission control: the server holds a bounded in-flight budget
// (Config.MaxInflight). A request arriving with the budget exhausted is
// shed immediately with an OVERLOADED error frame — fail-fast, so a
// saturated server answers in microseconds instead of queueing into
// timeout, and the client can back off or retry against a replica. Shed
// requests are counted in Metrics.Shed.
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

// Hop indices of the net tracer: executor-queue wait, backend execution
// (including response encoding), and flush wait — completion to the
// writer packing the response into its coalesced frame, which includes
// the writer's one yield per flush but not the final write syscall.
const (
	netHopQueue = iota
	netHopExec
	netHopFlush
)

// Backend is the serving engine a network server fronts. Both
// serve.Server (via ServerBackend) and cluster.Cluster (via
// ClusterBackend) satisfy it through thin adapters; tests substitute
// stubs to exercise admission and drain behavior deterministically.
type Backend interface {
	// Geometry reports tables, reduction, dim, tableRows, maxBatch — the
	// numbers the wire handshake announces.
	Geometry() (tables, reduction, dim, tableRows, maxBatch int)
	// EmbedInto computes the pooled embedding for one request into dst,
	// exactly like serve.Server.EmbedInto / cluster.EmbedInto.
	EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error)
	// ApplyUpdates applies one gradient-update batch.
	ApplyUpdates(ups []runtime.TableUpdate) error
	// MetricsText renders the backend's own metrics report.
	MetricsText() string
}

// RestoreBackend is the optional backend extension behind the RESTORE
// op: installing absolute row values from a durable snapshot, the cold
// half of a replica router's crash recovery. Backends that lack it (the
// cluster adapter, test stubs) answer RESTORE frames with BAD_REQUEST —
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
func (b serverBackend) Geometry() (int, int, int, int, int) { return b.s.Geometry() }

// EmbedInto implements Backend.
func (b serverBackend) EmbedInto(dst []float32, rows [][]int, batch int) ([]float32, error) {
	return b.s.EmbedInto(dst, rows, batch)
}

// ApplyUpdates implements Backend.
func (b serverBackend) ApplyUpdates(ups []runtime.TableUpdate) error { return b.s.Update(ups) }

// MetricsText implements Backend.
func (b serverBackend) MetricsText() string { return b.s.Metrics().String() }

// ServerBackend adapts a single-node serve.Server to the Backend
// interface.
func ServerBackend(s *serve.Server) Backend { return serverBackend{s} }

// clusterBackend adapts a cluster.Cluster.
type clusterBackend struct{ c *cluster.Cluster }

// Geometry implements Backend.
func (b clusterBackend) Geometry() (int, int, int, int, int) { return b.c.Geometry() }

// EmbedInto implements Backend.
func (b clusterBackend) EmbedInto(dst []float32, rows [][]int, batch int) ([]float32, error) {
	return b.c.EmbedInto(dst, rows, batch)
}

// ApplyUpdates implements Backend.
func (b clusterBackend) ApplyUpdates(ups []runtime.TableUpdate) error { return b.c.ApplyUpdates(ups) }

// MetricsText implements Backend.
func (b clusterBackend) MetricsText() string { return b.c.Metrics().String() }

// ClusterBackend adapts a sharded cluster.Cluster to the Backend
// interface.
func ClusterBackend(c *cluster.Cluster) Backend { return clusterBackend{c} }

// Config tunes the network server. The zero value of every field selects
// a documented default at New; negative values are invalid.
type Config struct {
	// MaxInflight is the admission budget: the number of embed/update
	// requests simultaneously admitted (queued or executing) across all
	// connections. A request beyond it is shed with an OVERLOADED error
	// frame instead of queueing. It also sizes the executor pool, so every
	// admitted request reaches the backend's own queue without waiting
	// behind another. Zero defaults to 256; negative is invalid.
	MaxInflight int
	// MaxFrameBytes caps one frame's wire size in both directions. Zero
	// defaults to wire.DefaultMaxFrameBytes; negative is invalid. A frame
	// beyond it is a protocol violation and closes the connection (the
	// stream can no longer be trusted to be frame-aligned).
	MaxFrameBytes int
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
	// and METRICS responses carry the registry's versioned snapshot
	// section. Nil leaves the server uninstrumented at zero cost.
	Registry *telemetry.Registry
}

// writeTimeout bounds one response-frame write. A client that stops reading
// fills its socket buffer; without this bound its writer goroutine would
// block forever and a graceful drain could never finish. On expiry the
// connection is dropped (the client was not consuming responses anyway).
const writeTimeout = 30 * time.Second

// maxCoalesceBytes soft-caps one coalesced response frame so the writer's
// reused buffer stays cache-sized even when the configured frame limits
// are generous; past it the writer just flushes and starts the next batch.
const maxCoalesceBytes = 256 << 10

// readBufBytes sizes the buffered reader in front of each connection, so
// one read syscall pulls in many pipelined (or coalesced) frames.
const readBufBytes = 64 << 10

// task is one in-flight request: the decoded arguments, the destination
// scratch the backend writes into, and the encoded response frame. Tasks
// are pooled server-wide; a task is owned by exactly one goroutine at a
// time (reader -> executor -> writer) and recycled by the writer after
// its response frame is on the wire.
type task struct {
	c  *conn
	op wire.Op
	id uint64

	// deadline bookkeeping (OpEmbed and OpUpdate): the request's budget in
	// microseconds (0 = none) and the frame's arrival time. The executor
	// re-checks the budget after the queue wait — the dominant expiry cause
	// under load — and sheds expired work with DEADLINE_EXCEEDED instead of
	// executing a response nobody is waiting for.
	budget  uint32
	arrived time.Time

	// embed arguments + result scratch
	batch int
	rows  [][]int
	idx   []int
	dst   []float32

	// update arguments (decoded views + converted headers)
	upd wire.UpdateScratch
	ups []runtime.TableUpdate
	// sync / restore sequence number (OpSync and OpRestore)
	seq uint64
	// restore arguments (OpRestore only): decoded views into upd's arenas
	commit   bool
	restTab  int
	restRows []int
	restVals []float32

	// encoded response frame, written verbatim by the conn writer
	resp []byte

	// per-hop trace slot, recycled with the task (see putTask)
	span telemetry.Span
}

// conn is one accepted connection: its reader goroutine (the function
// handle runs in), its writer goroutine draining out, and the count of
// responses still owed so the drain can wait for them.
type conn struct {
	srv *Server
	nc  net.Conn
	out chan *task
	// owed counts tasks handed to the executor or writer but not yet
	// written; the reader waits on it before closing out, so a drain never
	// loses an in-flight response.
	owed sync.WaitGroup
	// pending counts responses owed to this connection that the writer has
	// not yet dequeued: draining out dry with pending positive, the writer
	// yields once so they share the flush; at zero it flushes at once.
	pending atomic.Int64
	// peerMax is the frame-size limit the client announced in its
	// handshake; the writer caps coalesced response frames at it. Written
	// by the reader before the first task is enqueued (the channel send
	// orders it for the writer).
	peerMax int
}

// Server is the network serving plane: accept loops feed per-connection
// reader/writer goroutines, which feed a bounded executor pool in front
// of the backend. Create with New, start with Serve (one call per
// listener), and stop with Close, which drains gracefully. The server
// does not own the backend — closing the netserve.Server leaves the
// serve.Server or cluster.Cluster running for its owner to close.
type Server struct {
	cfg     Config
	backend Backend
	geom    wire.Geometry
	width   int

	tasks    chan *task
	taskPool sync.Pool
	workerWG sync.WaitGroup

	inflight atomic.Int64
	draining atomic.Bool

	// updateSeq counts successfully applied update batches (plain and
	// sequenced). syncMu makes the OpSync check-apply-bump atomic, which is
	// what gives a router's catch-up replay its exactly-once guarantee.
	updateSeq atomic.Uint64
	syncMu    sync.Mutex

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	connWG    sync.WaitGroup
	closeOnce sync.Once
	closeDone chan struct{}

	started    time.Time
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
	lat        *telemetry.Histogram // executor pickup to response encoded

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
	reg.RegisterHistogram("tensordimm_net_request_seconds", "executor latency per request (dequeue to response encoded)", s.lat)
	s.tracer = reg.Tracer("net", 0, []string{"queue", "exec", "flush"})
}

// New validates the config against the backend's geometry and returns a
// server ready for Serve. No sockets are opened here.
func New(b Backend, cfg Config) (*Server, error) {
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("netserve: MaxInflight %d is negative (use 0 for the default)", cfg.MaxInflight)
	}
	if cfg.MaxFrameBytes < 0 {
		return nil, fmt.Errorf("netserve: MaxFrameBytes %d is negative (use 0 for the default)", cfg.MaxFrameBytes)
	}
	if cfg.Role != wire.RoleStandalone && cfg.Role != wire.RoleReplica {
		return nil, fmt.Errorf("netserve: unknown role %d", uint8(cfg.Role))
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 256
	}
	if cfg.MaxFrameBytes == 0 {
		cfg.MaxFrameBytes = wire.DefaultMaxFrameBytes
	}
	tables, reduction, dim, rows, maxBatch := b.Geometry()
	geom := wire.Geometry{Tables: tables, Reduction: reduction, Dim: dim, TableRows: rows, MaxBatch: maxBatch}
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("netserve: backend geometry: %w", err)
	}
	// The largest legal frame in either direction must fit the limit, or
	// every maximal request would be "oversized" by configuration.
	maxReq := wire.HeaderBytes + 8 + 4*tables*maxBatch*reduction
	maxResp := wire.HeaderBytes + 4*maxBatch*tables*dim
	if need := max(maxReq, maxResp); cfg.MaxFrameBytes < need {
		return nil, fmt.Errorf("netserve: MaxFrameBytes %d below the %d B a maximal request/response needs", cfg.MaxFrameBytes, need)
	}
	s := &Server{
		cfg:       cfg,
		backend:   b,
		geom:      geom,
		width:     geom.Width(),
		tasks:     make(chan *task, cfg.MaxInflight),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
		closeDone: make(chan struct{}),
		started:   time.Now(),
		lat:       telemetry.NewHistogram(),
	}
	s.taskPool.New = func() any { return &task{} }
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

// startConn registers one accepted connection and spawns its reader and
// writer goroutines. A connection arriving during (or after) Close is
// refused immediately.
func (s *Server) startConn(nc net.Conn) {
	c := &conn{srv: s, nc: nc, out: make(chan *task, s.cfg.MaxInflight+16)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(2)
	s.mu.Unlock()
	s.accepted.Add(1)
	go c.readLoop()
	go c.writeLoop()
}

// forget removes a finished connection from the server's registry.
func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// admit takes one unit of the in-flight budget, failing fast when the
// budget is exhausted.
func (s *Server) admit() bool {
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
// owed, then hands the connection to the writer for teardown.
func (c *conn) readLoop() {
	s := c.srv
	defer s.connWG.Done()
	// All reads go through a buffered reader so one syscall pulls in many
	// pipelined or coalesced frames; the frame decoder then slices them out
	// of the buffer without further kernel round trips.
	br := bufio.NewReaderSize(c.nc, readBufBytes)
	ok := false
	var buf []byte
	if peerMax, hbuf, err := wire.ReadClientHello(br, nil); err == nil {
		c.peerMax = peerMax
		hello := wire.AppendServerHello(hbuf[:0], wire.Hello{
			Geom:          s.geom,
			Role:          s.cfg.Role,
			UpdateSeq:     s.updateSeq.Load(),
			MaxFrameBytes: s.cfg.MaxFrameBytes,
		})
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := c.nc.Write(hello); err == nil {
			ok = true
		}
		buf = hello[:0]
	} else if !isDisconnect(err) {
		s.badFrames.Add(1)
	}
	for ok {
		var op wire.Op
		var id uint64
		var payload []byte
		var err error
		op, id, payload, buf, err = wire.ReadFrame(br, buf, s.cfg.MaxFrameBytes)
		if err != nil {
			// Disconnects (EOF, drain half-close, reset) are the normal end
			// of a connection; everything else is a frame-level violation.
			if !isDisconnect(err) {
				s.badFrames.Add(1)
			}
			break
		}
		if !c.dispatch(op, id, payload) {
			break
		}
	}
	// Drain handover: every response owed must be encoded and enqueued
	// before out closes, and the writer flushes them all before closing
	// the socket.
	c.owed.Wait()
	close(c.out)
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
// their sub-requests. It returns false when the frame is a protocol
// violation that must close the connection.
func (c *conn) dispatch(op wire.Op, id uint64, payload []byte) bool {
	s := c.srv
	if op != wire.OpBatch {
		return c.dispatchOne(op, id, payload)
	}
	it, err := wire.DecodeBatch(payload)
	if err != nil {
		// A malformed count prefix: the outer frame was still well-formed, so
		// the stream stays aligned — answer under the batch id and carry on.
		s.failures.Add(1)
		t := s.getTask(c, op, id)
		t.resp = wire.AppendError(t.resp[:0], id, wire.ErrBadRequest, err.Error())
		c.enqueue(t)
		return true
	}
	s.batchesIn.Add(1)
	for {
		sop, sid, sp, more := it.Next()
		if !more {
			break
		}
		s.batchedIn.Add(1)
		if !c.dispatchOne(sop, sid, sp) {
			return false
		}
	}
	if err := it.Err(); err != nil {
		// A structural violation inside the batch (truncated interior
		// sub-frame, nested batch, trailing bytes). Requests before the
		// damage were already dispatched and will be answered under their own
		// ids; the damage itself is reported under the batch id.
		s.failures.Add(1)
		t := s.getTask(c, wire.OpBatch, id)
		t.resp = wire.AppendError(t.resp[:0], id, wire.ErrBadRequest, err.Error())
		c.enqueue(t)
	}
	return true
}

// dispatchOne routes one non-BATCH request frame (top-level or a batch
// sub-frame). It returns false when the op is unknown, which must close
// the connection.
func (c *conn) dispatchOne(op wire.Op, id uint64, payload []byte) bool {
	s := c.srv
	switch op {
	case wire.OpPing:
		t := s.getTask(c, op, id)
		s.pings.Add(1)
		t.resp = wire.AppendFrame(t.resp[:0], wire.OpPong, id, nil)
		c.enqueue(t)
	case wire.OpMetrics:
		t := s.getTask(c, op, id)
		report := s.backend.MetricsText() + "\n" + s.Metrics().String()
		// Since wire revision 6 a METRICS response leads with the
		// registry's versioned snapshot section; the human report rides
		// behind it (telemetry.DecodeWirePayload splits them).
		t.resp = wire.AppendFrame(t.resp[:0], wire.OpMetricsResp, id, telemetry.EncodeWirePayload(s.cfg.Registry, report))
		c.enqueue(t)
	case wire.OpEmbed:
		t := s.getTask(c, op, id)
		t.arrived = time.Now()
		var err error
		t.batch, t.budget, t.rows, t.idx, err = wire.DecodeEmbed(payload, s.geom, t.rows, t.idx)
		if err != nil {
			s.failures.Add(1)
			t.resp = wire.AppendError(t.resp[:0], id, wire.ErrBadRequest, err.Error())
			c.enqueue(t)
			return true
		}
		c.submit(t)
	case wire.OpUpdate:
		t := s.getTask(c, op, id)
		t.arrived = time.Now()
		wu, budget, err := wire.DecodeUpdate(payload, s.geom, &t.upd)
		if err == nil {
			t.budget = budget
			err = t.convertUpdates(wu, s.geom.Dim)
		}
		if err != nil {
			s.failures.Add(1)
			t.resp = wire.AppendError(t.resp[:0], id, wire.ErrBadRequest, err.Error())
			c.enqueue(t)
			return true
		}
		c.submit(t)
	case wire.OpSync:
		t := s.getTask(c, op, id)
		seq, wu, err := wire.DecodeSync(payload, s.geom, &t.upd)
		if err == nil {
			err = t.convertUpdates(wu, s.geom.Dim)
		}
		if err != nil {
			s.failures.Add(1)
			t.resp = wire.AppendError(t.resp[:0], id, wire.ErrBadRequest, err.Error())
			c.enqueue(t)
			return true
		}
		t.seq = seq
		c.submit(t)
	case wire.OpRestore:
		t := s.getTask(c, op, id)
		seq, commit, up, err := wire.DecodeRestore(payload, s.geom, &t.upd)
		if err != nil {
			s.failures.Add(1)
			t.resp = wire.AppendError(t.resp[:0], id, wire.ErrBadRequest, err.Error())
			c.enqueue(t)
			return true
		}
		t.seq, t.commit = seq, commit
		t.restTab, t.restRows, t.restVals = up.Table, up.Rows, up.Grads
		c.submit(t)
	default:
		s.badFrames.Add(1)
		return false
	}
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

// submit runs one decoded request through admission control: a request
// racing the drain window (Close marked the server draining but the read
// half-close has not reached this connection yet) is refused with
// SHUTTING_DOWN, one whose deadline budget already lapsed is shed with
// DEADLINE_EXCEEDED before it can consume an in-flight slot, admitted
// tasks go to the executor pool, and the rest are shed with an OVERLOADED
// error frame.
func (c *conn) submit(t *task) {
	s := c.srv
	if s.draining.Load() {
		s.failures.Add(1)
		t.resp = wire.AppendError(t.resp[:0], t.id, wire.ErrShuttingDown,
			"server is draining; no new work accepted")
		c.enqueue(t)
		return
	}
	if t.expired(time.Now()) {
		s.expired.Add(1)
		t.resp = wire.AppendError(t.resp[:0], t.id, wire.ErrDeadlineExceeded,
			"deadline budget exhausted before dispatch")
		c.enqueue(t)
		return
	}
	if !s.admit() {
		s.shed.Add(1)
		t.resp = wire.AppendError(t.resp[:0], t.id, wire.ErrOverloaded,
			"in-flight budget exhausted; retry after backoff")
		c.enqueue(t)
		return
	}
	if s.tracer != nil {
		// Embed/update tasks trace from frame arrival; sync/restore tasks
		// (no arrival stamp) trace from admission.
		if t.arrived.IsZero() {
			t.span.Begin()
		} else {
			t.span.BeginAt(t.arrived)
		}
	}
	c.owed.Add(1)
	c.pending.Add(1)
	// Admission bounds senders at MaxInflight, which is exactly the
	// channel's capacity: this send never blocks.
	s.tasks <- t
}

// enqueue hands a ready-to-write response to the connection's writer.
func (c *conn) enqueue(t *task) {
	c.owed.Add(1)
	c.pending.Add(1)
	c.out <- t
}

// executor is one worker of the server-wide pool: it runs admitted tasks
// against the backend, encodes the response, and hands it to the owning
// connection's writer.
func (s *Server) executor() {
	defer s.workerWG.Done()
	for t := range s.tasks {
		start := time.Now()
		// The queue hop closes here for expired tasks too — their trace
		// shows exactly where the budget died.
		if s.tracer != nil {
			t.span.MarkAt(netHopQueue, start)
		}
		if t.expired(start) {
			// The budget lapsed in the queue: the client has moved on, so
			// executing would burn backend capacity on a dead response.
			s.expired.Add(1)
			t.resp = wire.AppendError(t.resp[:0], t.id, wire.ErrDeadlineExceeded,
				"deadline budget exhausted in queue")
			s.inflight.Add(-1)
			t.c.out <- t
			continue
		}
		switch t.op {
		case wire.OpEmbed:
			need := t.batch * s.width
			if cap(t.dst) < need {
				t.dst = make([]float32, need)
			}
			dst, err := s.backend.EmbedInto(t.dst[:need], t.rows, t.batch)
			if err != nil {
				s.failures.Add(1)
				t.resp = wire.AppendError(t.resp[:0], t.id, wire.ErrInternal, err.Error())
			} else {
				t.dst = dst
				s.requests.Add(1)
				t.resp = wire.AppendEmbedResp(t.resp[:0], t.id, dst)
			}
		case wire.OpUpdate:
			if err := s.backend.ApplyUpdates(t.ups); err != nil {
				s.failures.Add(1)
				t.resp = wire.AppendError(t.resp[:0], t.id, wire.ErrInternal, err.Error())
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
		end := time.Now()
		s.lat.Observe(end.Sub(start).Seconds())
		if s.tracer != nil {
			t.span.MarkAt(netHopExec, end)
		}
		s.inflight.Add(-1)
		// The task already owes its response (owed was incremented at
		// admission), so it goes to the writer directly, not via enqueue.
		t.c.out <- t
	}
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
			return wire.AppendError(t.resp[:0], t.id, wire.ErrInternal, err.Error())
		}
		s.updateSeq.Store(cur + 1)
		s.syncs.Add(1)
		return wire.AppendSyncResp(t.resp[:0], t.id, cur+1)
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
	if err := rb.Restore(t.restTab, t.restRows, t.restVals); err != nil {
		s.failures.Add(1)
		return wire.AppendError(t.resp[:0], t.id, wire.ErrInternal, err.Error())
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

// writeLoop is a connection's writer goroutine: it drains completed
// responses (in completion order, not request order — that is the
// pipelining contract) into a reused write buffer and flushes the whole
// drain with one write syscall, as a single frame when one response was
// ready or a coalesced BATCH frame when several were. When the drain runs
// dry with responses still owed it yields the processor once per flush —
// runnable executors finish and enqueue, as in netclient's flushLoop —
// and packs what arrived; it never waits on a clock. When out closes
// (reader done, all responses flushed) it tears the connection down.
func (c *conn) writeLoop() {
	s := c.srv
	defer s.connWG.Done()
	wbuf := make([]byte, wire.BatchHeaderBytes, 32<<10)
	count := 0
	// pack appends one response to the flush being built. owed.Done fires at
	// pack time: the reader's drain Wait only needs the response owned by the
	// writer, which flushes before it ever gives the socket up.
	pack := func(t *task) {
		wbuf = append(wbuf, t.resp...)
		count++
		c.owed.Done()
		s.putTask(t)
	}
	failed := false
	var carry *task // response that did not fit the previous flush
	for {
		t := carry
		carry = nil
		if t == nil {
			var open bool
			if t, open = <-c.out; !open {
				break
			}
			c.pending.Add(-1)
		}
		if failed {
			// The client is gone; stop writing but keep draining so every
			// owed response is accounted and the reader's Wait returns.
			c.owed.Done()
			s.putTask(t)
			continue
		}
		// Start a flush cycle: reserve BATCH-header headroom (stamped only if
		// this flush coalesces), then pack completed responses behind it, up
		// to what the client's handshake said it will read.
		maxCoalesce := min(s.cfg.MaxFrameBytes, c.peerMax, maxCoalesceBytes)
		wbuf, count = wbuf[:wire.BatchHeaderBytes], 0
		pack(t)
		yielded := false
	gather:
		for count < wire.MaxBatchSubFrames {
			select {
			case t2, open := <-c.out:
				if !open {
					break gather
				}
				c.pending.Add(-1)
				if len(wbuf)+len(t2.resp) > maxCoalesce {
					carry = t2
					break gather
				}
				pack(t2)
			default:
				// Queue dry: flush, unless more is owed and this cycle has not
				// yet yielded to the executors about to enqueue it.
				if yielded || c.pending.Load() == 0 {
					break gather
				}
				yielded = true
				goruntime.Gosched()
			}
		}
		frame := wbuf[wire.BatchHeaderBytes:]
		if count > 1 {
			// The request ids that matter ride inside the sub-frames; the
			// super-frame's own id carries no information.
			frame = wire.FinishBatch(wbuf, 0, count)
			s.batchesOut.Add(1)
			s.batchedOut.Add(uint64(count))
		}
		// The write deadline is what keeps a graceful drain finite: a client
		// that stops reading trips it, the write fails, and the drain path
		// above accounts every owed response.
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := c.nc.Write(frame); err != nil {
			failed = true
		}
	}
	c.nc.Close()
	s.forget(c)
}

// getTask fetches a pooled task stamped for one request.
func (s *Server) getTask(c *conn, op wire.Op, id uint64) *task {
	t := s.taskPool.Get().(*task)
	t.c, t.op, t.id = c, op, id
	t.budget = 0
	return t
}

// expired reports whether the task's deadline budget lapsed since its
// frame arrived.
func (t *task) expired(now time.Time) bool {
	return t.budget > 0 && now.Sub(t.arrived) >= time.Duration(t.budget)*time.Microsecond
}

// putTask recycles a task. Buffers keep their capacity; references into
// per-request state are dropped. The writer is the only caller, at pack
// time, so this is where a traced task's flush hop closes and its span
// feeds the slow ring before the slot is recycled.
func (s *Server) putTask(t *task) {
	if s.tracer != nil && t.span.Active() {
		now := time.Now()
		t.span.MarkAt(netHopFlush, now)
		s.tracer.FinishAt(&t.span, now)
	}
	t.span.Reset()
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
		close(s.closeDone)
	})
	<-s.closeDone
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

// Metrics is a point-in-time snapshot of the network plane's counters.
type Metrics struct {
	Accepted  uint64        // connections accepted
	Requests  uint64        // embed requests completed successfully
	Updates   uint64        // update requests applied successfully
	Syncs     uint64        // sequenced updates absorbed (applied or replayed)
	Restores  uint64        // snapshot chunks installed
	UpdateSeq uint64        // update batches applied (the handshake sequence number)
	Pings     uint64        // pings answered
	Shed      uint64        // requests shed by admission control (OVERLOADED)
	Expired   uint64        // requests shed with an already-lapsed deadline (DEADLINE_EXCEEDED)
	Failures  uint64        // requests answered with a non-OVERLOADED error frame
	BadFrames uint64        // protocol violations (corrupt/oversized/unknown frames)
	Inflight  int64         // requests admitted and not yet completed
	Uptime    time.Duration // time since New

	BatchesIn  uint64 // BATCH request frames received
	BatchedIn  uint64 // sub-requests that arrived inside BATCH frames
	BatchesOut uint64 // coalesced BATCH response frames written
	BatchedOut uint64 // responses that rode inside coalesced frames

	// Latency digests server-side request latency: executor pickup to
	// response enqueued (decode and socket time excluded), in seconds.
	Latency telemetry.HistogramSnapshot
}

// Metrics snapshots the server's counters. Safe at any time, including
// after Close.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Accepted:   s.accepted.Load(),
		Requests:   s.requests.Load(),
		Updates:    s.updates.Load(),
		Syncs:      s.syncs.Load(),
		Restores:   s.restores.Load(),
		UpdateSeq:  s.updateSeq.Load(),
		Pings:      s.pings.Load(),
		Shed:       s.shed.Load(),
		Expired:    s.expired.Load(),
		Failures:   s.failures.Load(),
		BadFrames:  s.badFrames.Load(),
		Inflight:   s.inflight.Load(),
		Uptime:     time.Since(s.started),
		BatchesIn:  s.batchesIn.Load(),
		BatchedIn:  s.batchedIn.Load(),
		BatchesOut: s.batchesOut.Load(),
		BatchedOut: s.batchedOut.Load(),
		Latency:    s.lat.Snapshot(),
	}
}

// String renders the metrics as a small report.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"network: %d conns accepted, up %s\n"+
			"served %d embeds, %d updates, %d syncs, %d restores (seq %d), %d pings (%d failures)\n"+
			"admission: %d shed (OVERLOADED), %d expired (DEADLINE_EXCEEDED), %d in flight, %d bad frames\n"+
			"coalescing: %d sub-requests in %d BATCH frames received, %d responses in %d coalesced frames written\n"+
			"server-side latency  %s",
		m.Accepted, m.Uptime.Round(time.Millisecond),
		m.Requests, m.Updates, m.Syncs, m.Restores, m.UpdateSeq, m.Pings, m.Failures,
		m.Shed, m.Expired, m.Inflight, m.BadFrames,
		m.BatchedIn, m.BatchesIn, m.BatchedOut, m.BatchesOut,
		m.Latency)
}
