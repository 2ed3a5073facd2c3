// Package netclient is the Go client of the network serving plane: it
// speaks the internal/wire protocol to a netserve.Server over a small
// pool of TCP connections and exposes the same request surface as the
// in-process serving layers (EmbedInto, Update, Metrics, Ping), plus the
// replica-oriented extensions a router needs: sequenced updates (Sync),
// asynchronous embeds (StartEmbed, for hedged reads), and a supervised
// pool that redials every lost connection.
//
// Requests pipeline: any number of goroutines may call into one Client
// concurrently, each request is stamped with a client-wide id when its
// call leaves the pool (so its frame is encoded before a connection is
// picked), writes interleave on the shared connections, and a per-connection
// reader goroutine correlates responses — which arrive in completion
// order, not request order — back to their waiting callers.
//
// Sends coalesce: concurrent requests on one connection Append their
// frames to the connection's wire.Writer, and a dedicated per-connection
// flusher goroutine flushes everything appended since its last pass as
// one BATCH super-frame (group commit), so one write syscall is amortized
// over a micro-batch while senders never touch the socket. The flusher
// never yields: the coalescing window is its own scheduling delay and the
// write in flight. Responses arrive either plain or coalesced by the
// server's wire.Writer; the reader unpacks both.
//
// Connection lifecycle: every connection comes from one connect attempt —
// TCP connect, client hello, server hello — bounded as a whole by
// wire.HandshakeTimeout, so a server that accepts and then goes silent
// costs one bound, never a wedged caller. Attempts repeat in one redial
// loop with jittered exponential backoff (ReconnectMin to ReconnectMax):
// Dial runs it until RetryFor lapses, and each pool slot's supervisor runs
// it after every loss until Close. While a slot is down, calls use the
// others and fail fast once none is left. A re-handshake must announce the
// geometry learned at Dial (a restarted server with a different model
// stays down), and the OnUp/OnDown hooks report transitions so a replica
// router can replay its update log before trusting the endpoint again.
//
// The steady-state EmbedInto path performs no heap allocations: calls
// (with their encode buffers and reply channels) are pooled, responses
// decode straight into the caller's destination buffer, and the reader
// reuses one receive buffer per connection (see ARCHITECTURE.md, "Memory
// discipline"). A caller that reuses its dst slice therefore drives the
// full network round trip allocation-free.
package netclient

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// Config tunes a client. The zero value of every field selects a
// documented default at Dial; negative values are invalid. The frame
// limit (wire.DefaultMaxFrameBytes, which Dial checks against the largest
// response the announced geometry can produce) and the handshake bound
// (wire.HandshakeTimeout, from connect to the server's hello) are fixed.
type Config struct {
	// Conns is the connection pool size. Requests round-robin across the
	// pool; more connections spread socket write contention at the cost of
	// server-side reader goroutines. Zero defaults to 1.
	Conns int
	// RetryFor keeps Dial's redial loop going until this much time has
	// elapsed — the knob that lets a client start before its server in
	// scripted two-process runs. Zero means a single attempt.
	RetryFor time.Duration
	// Deadline is the per-request deadline budget stamped into EMBED and
	// UPDATE frames and enforced client-side: a request with no response
	// when the budget lapses fails with a *DeadlineError, and the late
	// response (if it ever arrives) is discarded. The budget restarts at
	// each hop (gRPC-style): the server measures its share from frame
	// arrival, so wire transit is neither double-counted nor deducted.
	// Zero means no deadline. StartEmbed callers enforce their own waits;
	// the stamped budget still lets the server shed the request once
	// expired.
	Deadline time.Duration

	// ReconnectMin is the first redial backoff, at Dial and after a lost
	// connection. Zero defaults to 50ms.
	ReconnectMin time.Duration
	// ReconnectMax caps the doubling backoff. Zero defaults to 2s.
	ReconnectMax time.Duration
	// OnUp, if set, is called from the supervisor goroutine each time a
	// lost connection is re-established, with the server's new hello. A
	// replica router uses it to replay missed updates (the hello carries
	// the server's update sequence) before routing reads to the endpoint.
	// It is not called for the initial Dial connections — read Hello()
	// after Dial for those.
	OnUp func(wire.Hello)
	// OnDown, if set, is called from the supervisor goroutine each time a
	// live connection is lost, with the breaking error. Failed reconnect
	// attempts do not re-fire it; the endpoint is already down.
	OnDown func(error)
}

// ServerError is an error frame returned by the server, preserving the
// machine-readable code so callers can distinguish a shed request
// (wire.ErrOverloaded — retry after backoff) from a rejected or failed
// one.
type ServerError struct {
	// Code classifies the failure.
	Code wire.ErrCode
	// Msg is the server's human-readable detail.
	Msg string
}

// Error implements error.
func (e *ServerError) Error() string { return fmt.Sprintf("netclient: server: %s: %s", e.Code, e.Msg) }

// DeadlineError reports a client-local deadline miss: the request's
// budget lapsed with no response on the wire, so the caller was released
// and the late response (if any) will be dropped on arrival. It is
// distinct from a *ServerError with wire.ErrDeadlineExceeded, which means
// the server itself shed the already-expired request; both end a request
// the caller has stopped caring about, and retrying with a fresh budget
// is safe.
type DeadlineError struct {
	// Budget is the deadline budget the request was stamped with.
	Budget time.Duration
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("netclient: deadline budget %v exhausted awaiting response", e.Budget)
}

// Call is one in-flight request: the encode buffer, the destination the
// reader decodes an embed response into, the reply channel and a deadline
// timer. Calls are pooled per client; a Call is owned by its submitter
// from StartEmbed (or a blocking op) until Finish, with the reader
// borrowing it between correlation and reply delivery. A started Call
// ends either with its result received from Done and the call returned
// with Finish, or — a hedged read's loser — with Abandon.
type Call struct {
	buf  []byte
	dst  []float32
	snap []byte // METRICS payload, copied off the read buffer
	wu   []wire.Update
	seq  uint64
	done chan error
	// id is the call's client-wide request id, assigned by getCall; cc is
	// the connection it was started on. Together they locate the call on
	// the wire, for abandoning it.
	id uint64
	cc *clientConn
	// tm is the call's deadline timer, created with it and stopped (and
	// drained) whenever await is not blocked on it.
	tm *time.Timer
}

// Done returns the channel the call's result is delivered on: exactly one
// error (nil for success) per started call.
func (ca *Call) Done() <-chan error { return ca.done }

// Dst returns the destination buffer the response was decoded into,
// re-sliced to the response length. Valid after Done delivered nil.
func (ca *Call) Dst() []float32 { return ca.dst }

// clientConn is one pooled connection: the send side coalescing
// concurrent request frames into BATCH super-frames, the pending table
// correlating request ids to waiting calls, and a reader goroutine
// delivering responses.
type clientConn struct {
	nc net.Conn
	br *bufio.Reader
	w  *wire.Writer

	pmu     sync.Mutex
	pending map[uint64]*Call
	// abandoned ids belong to calls whose caller already left (a deadline
	// lapsed, or Abandon): the reader drops their late responses instead
	// of treating them as protocol violations. Entries are removed when the
	// straggler arrives and die with the connection otherwise; the server
	// answers every admitted request, so the set cannot grow without bound.
	abandoned map[uint64]struct{}
	broken    error // set once the connection is unusable; guarded by pmu
	rdDone    chan struct{}
}

// connSlot is one position in the pool. Its supervisor swaps in a fresh
// connection after each loss (nil while down).
type connSlot struct {
	cur atomic.Pointer[clientConn]
}

// Client is a pooled, pipelined client of one serving endpoint. Create
// with Dial, submit from any number of goroutines, and Close when done.
type Client struct {
	cfg       Config
	addr      string
	maxFrame  int                        // this end's frame limit, announced in every handshake
	handshake time.Duration              // bound on one connect attempt
	geom      wire.Geometry              // learned at Dial; every later handshake must match
	hello     atomic.Pointer[wire.Hello] // latest handshake observed

	slots    []*connSlot
	rr       atomic.Uint64
	nextID   atomic.Uint64 // request ids, unique across every connection
	callPool sync.Pool

	closed    atomic.Bool // set by Close, read by pick
	closeOnce sync.Once
	closeCh   chan struct{}
	superWG   sync.WaitGroup
	readerWG  sync.WaitGroup
}

// Dial connects cfg.Conns connections to addr, performs the protocol
// handshake on each, and verifies every connection announces the same
// geometry. With cfg.RetryFor > 0 failed attempts are retried until the
// deadline, so a client may start before its server. Every connection is
// supervised until Close.
func Dial(addr string, cfg Config) (*Client, error) {
	return dial(addr, cfg, wire.DefaultMaxFrameBytes, wire.HandshakeTimeout)
}

// dial is Dial with the client's frame limit and handshake bound as
// parameters, which only tests set below their wire constants.
func dial(addr string, cfg Config, maxFrame int, handshake time.Duration) (*Client, error) {
	if cfg.Conns < 0 || cfg.RetryFor < 0 || cfg.ReconnectMin < 0 || cfg.ReconnectMax < 0 || cfg.Deadline < 0 {
		return nil, fmt.Errorf("netclient: negative config (Conns %d, RetryFor %v, ReconnectMin %v, ReconnectMax %v, Deadline %v)",
			cfg.Conns, cfg.RetryFor, cfg.ReconnectMin, cfg.ReconnectMax, cfg.Deadline)
	}
	if cfg.Conns == 0 {
		cfg.Conns = 1
	}
	if cfg.ReconnectMin == 0 {
		cfg.ReconnectMin = 50 * time.Millisecond
	}
	if cfg.ReconnectMax == 0 {
		cfg.ReconnectMax = 2 * time.Second
	}
	if cfg.ReconnectMin > cfg.ReconnectMax {
		return nil, fmt.Errorf("netclient: ReconnectMin %v above ReconnectMax %v", cfg.ReconnectMin, cfg.ReconnectMax)
	}
	c := &Client{cfg: cfg, addr: addr, maxFrame: maxFrame, handshake: handshake, closeCh: make(chan struct{})}
	c.callPool.New = func() any {
		tm := time.NewTimer(time.Hour)
		tm.Stop()
		return &Call{done: make(chan error, 1), tm: tm}
	}
	until := time.Now().Add(cfg.RetryFor)
	for i := 0; i < cfg.Conns; i++ {
		cc, h, err := c.redial(until)
		if err != nil {
			c.Close()
			return nil, err
		}
		if i == 0 {
			c.geom = h.Geom
		}
		c.slots = append(c.slots, &connSlot{})
		c.install(c.slots[i], cc, h)
	}
	if _, maxResp := c.geom.EmbedFrameBytes(c.geom.MaxBatch); maxFrame < maxResp {
		c.Close()
		return nil, fmt.Errorf("netclient: frame limit %d below the %d B a maximal response needs", maxFrame, maxResp)
	}
	// Supervisors start only once Dial can no longer fail, so a failing
	// Dial never waits out an OnDown or OnUp hook.
	for _, slot := range c.slots {
		c.superWG.Add(1)
		go c.supervise(slot)
	}
	return c, nil
}

// connect makes one connection attempt — TCP connect, client hello, server
// hello — under a single handshake deadline, and refuses a server whose
// geometry differs from the one learned at Dial. The hello is read off the
// raw socket (the server sends nothing more until the first request), so
// the read buffer is allocated only for a connection that succeeded.
func (c *Client) connect() (*clientConn, wire.Hello, error) {
	deadline := time.Now().Add(c.handshake)
	nc, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", c.addr)
	if err != nil {
		return nil, wire.Hello{}, fmt.Errorf("netclient: dial %s: %w", c.addr, err)
	}
	nc.SetDeadline(deadline)
	var h wire.Hello
	if _, err = nc.Write(wire.AppendClientHello(make([]byte, 0, 16), c.maxFrame)); err == nil {
		h, _, err = wire.ReadServerHello(nc, nil)
	}
	if err == nil && c.geom != (wire.Geometry{}) && h.Geom != c.geom {
		err = fmt.Errorf("announced geometry %+v, want %+v", h.Geom, c.geom)
	}
	if err != nil {
		nc.Close()
		return nil, wire.Hello{}, fmt.Errorf("netclient: handshake with %s: %w", c.addr, err)
	}
	nc.SetDeadline(time.Time{})
	return &clientConn{
		nc:        nc,
		br:        bufio.NewReaderSize(nc, wire.ReadBufBytes),
		w:         wire.NewWriter(c.maxFrame, h.MaxFrameBytes),
		pending:   make(map[uint64]*Call),
		abandoned: make(map[uint64]struct{}),
		rdDone:    make(chan struct{}),
	}, h, nil
}

// redial is the one redial loop: it repeats connect, sleeping a jittered
// backoff that doubles from ReconnectMin up to ReconnectMax between
// attempts, until one succeeds. It gives up with the last attempt's error
// once until has passed (a zero until never does), and with net.ErrClosed
// when the client closes.
func (c *Client) redial(until time.Time) (*clientConn, wire.Hello, error) {
	for backoff := c.cfg.ReconnectMin; ; backoff = min(2*backoff, c.cfg.ReconnectMax) {
		cc, h, err := c.connect()
		if err == nil || (!until.IsZero() && !time.Now().Before(until)) {
			return cc, h, err
		}
		select {
		case <-c.closeCh:
			return nil, wire.Hello{}, net.ErrClosed
		case <-time.After(jitter(backoff)):
		}
	}
}

// install makes a handshaken connection its slot's current one, records
// its hello as the latest, and starts the connection's reader and flusher.
func (c *Client) install(slot *connSlot, cc *clientConn, h wire.Hello) {
	c.hello.Store(&h)
	slot.cur.Store(cc)
	c.readerWG.Add(2)
	go c.readLoop(cc)
	go c.flushLoop(cc)
}

// supervise watches one slot until Close: when its connection dies, it
// reports the loss, runs the redial loop, installs the fresh connection
// and reports it up.
func (c *Client) supervise(slot *connSlot) {
	defer c.superWG.Done()
	for {
		cc := slot.cur.Load()
		select {
		case <-cc.rdDone:
		case <-c.closeCh:
			return
		}
		slot.cur.Store(nil)
		if c.cfg.OnDown != nil {
			cc.pmu.Lock()
			err := cc.broken // every reader exit sets it
			cc.pmu.Unlock()
			c.cfg.OnDown(err)
		}
		cc, h, err := c.redial(time.Time{})
		if err != nil {
			return
		}
		c.install(slot, cc, h)
		if c.cfg.OnUp != nil {
			c.cfg.OnUp(h)
		}
	}
}

// jitter spreads one reconnect sleep uniformly over [d/2, d): when a mass
// replica restart breaks every client at once, full-half jitter keeps
// their redial attempts from synchronizing into a thundering herd against
// the returning server, while never sleeping less than half the nominal
// backoff.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d-d/2)))
}

// Geometry returns the model geometry the server announced: everything a
// workload generator needs to build valid requests.
func (c *Client) Geometry() wire.Geometry { return c.geom }

// Hello returns the most recent server handshake, whose Role and
// UpdateSeq a replica router reads to size its catch-up replay.
func (c *Client) Hello() wire.Hello { return *c.hello.Load() }

// Healthy reports whether at least one pooled connection is currently
// live. It is false while every connection is down and true again as soon
// as a supervisor has a fresh one up.
func (c *Client) Healthy() bool {
	_, err := c.pick()
	return err == nil
}

// readLoop is one connection's reader goroutine: it decodes response
// frames, correlates each to its pending call by request id, and delivers
// the result. On a read error it fails every pending call and marks the
// connection broken.
func (c *Client) readLoop(cc *clientConn) {
	defer c.readerWG.Done()
	defer close(cc.rdDone)
	var buf []byte
	for {
		var op wire.Op
		var id uint64
		var payload []byte
		var err error
		op, id, payload, buf, err = wire.ReadFrame(cc.br, buf, c.maxFrame)
		if err != nil {
			cc.fail(fmt.Errorf("netclient: connection lost: %w", err))
			return
		}
		if op == wire.OpBatch {
			// A server-coalesced flush: deliver each packed response exactly
			// as if it had arrived alone.
			it, derr := wire.DecodeBatch(payload)
			if derr != nil {
				cc.fail(fmt.Errorf("netclient: corrupt response batch: %w", derr))
				return
			}
			for {
				sop, sid, sp, more := it.Next()
				if !more {
					break
				}
				if !cc.deliver(sop, sid, sp) {
					return
				}
			}
			if derr := it.Err(); derr != nil {
				cc.fail(fmt.Errorf("netclient: corrupt response batch: %w", derr))
				return
			}
			continue
		}
		if !cc.deliver(op, id, payload) {
			return
		}
	}
}

// deliver correlates one response frame to its pending call and hands it
// the result. It returns false when the frame proves the stream is not
// trustworthy, which fails the connection.
func (cc *clientConn) deliver(op wire.Op, id uint64, payload []byte) bool {
	cc.pmu.Lock()
	ca := cc.pending[id]
	if ca == nil {
		if _, ok := cc.abandoned[id]; ok {
			// A straggler for a deadline-expired call: its caller is gone,
			// so the response is dropped on the floor.
			delete(cc.abandoned, id)
			cc.pmu.Unlock()
			return true
		}
		cc.pmu.Unlock()
		// A response for nothing we sent: the stream is not trustworthy.
		cc.fail(fmt.Errorf("netclient: response for unknown request id %d", id))
		return false
	}
	delete(cc.pending, id)
	cc.pmu.Unlock()
	var res error
	switch op {
	case wire.OpEmbedResp:
		res = wire.DecodeEmbedResp(payload, ca.dst)
	case wire.OpUpdateResp, wire.OpPong:
		res = nil
	case wire.OpSyncResp, wire.OpRestoreResp:
		ca.seq, res = wire.DecodeSyncResp(payload)
	case wire.OpMetricsResp:
		ca.snap = append([]byte(nil), payload...)
	case wire.OpError:
		code, msg, derr := wire.DecodeError(payload)
		if derr != nil {
			res = derr
		} else {
			res = &ServerError{Code: code, Msg: msg}
		}
	default:
		res = fmt.Errorf("netclient: unexpected response op %d", op)
	}
	ca.done <- res
	return true
}

// fail marks the connection broken and delivers err to every pending
// call.
func (cc *clientConn) fail(err error) {
	cc.pmu.Lock()
	if cc.broken == nil {
		cc.broken = err
	}
	pending := cc.pending
	cc.pending = make(map[uint64]*Call)
	cc.pmu.Unlock()
	cc.nc.Close()
	for _, ca := range pending {
		ca.done <- err
	}
}

// abandon removes a call whose caller gave up from the pending table and
// tombstones its id, so the reader drops the late response instead of
// failing the connection. A false return means the reader already claimed
// the call — its result is on the way and the caller must take it.
func (cc *clientConn) abandon(id uint64) bool {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	if _, ok := cc.pending[id]; !ok {
		return false
	}
	delete(cc.pending, id)
	cc.abandoned[id] = struct{}{}
	return true
}

// pick selects the connection for one request, skipping down or broken
// ones.
func (c *Client) pick() (*clientConn, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("netclient: client is closed")
	}
	start := int(c.rr.Add(1) - 1)
	for i := 0; i < len(c.slots); i++ {
		cc := c.slots[(start+i)%len(c.slots)].cur.Load()
		if cc == nil {
			continue
		}
		cc.pmu.Lock()
		broken := cc.broken
		cc.pmu.Unlock()
		if broken == nil {
			return cc, nil
		}
	}
	return nil, fmt.Errorf("netclient: every connection is down")
}

// start registers ca under its id on cc (recording cc in ca) and appends
// the frame in ca.buf to the connection's Writer, which copies it. A
// non-nil return means the call was never registered (the connection was
// already broken) and nothing will arrive on done; after a nil return the
// result — including a write failure, which the reader delivers when it
// fails the pending set — arrives exactly once on done.
func (cc *clientConn) start(ca *Call) error {
	cc.pmu.Lock()
	if cc.broken != nil {
		err := cc.broken
		cc.pmu.Unlock()
		return err
	}
	ca.cc = cc
	cc.pending[ca.id] = ca
	cc.pmu.Unlock()
	cc.w.Append(ca.buf)
	return nil
}

// flushLoop is one connection's flusher goroutine: on each doorbell ring
// it flushes whatever the senders appended. It never yields first —
// while it writes, or waits its turn on a busy scheduler, concurrent
// senders keep appending, and that is the coalescing window. Runs until
// the connection's reader exits (socket dead or client closed) or a
// write fails.
func (c *Client) flushLoop(cc *clientConn) {
	defer c.readerWG.Done()
	for {
		select {
		case <-cc.w.Ready():
		case <-cc.rdDone:
			return
		}
		if _, _, _, err := cc.w.Flush(cc.nc); err != nil {
			// fail closes the socket, which wakes the reader; the reader then
			// fails everything pending — including the calls whose frames
			// were in the failed flush — exactly once.
			cc.fail(fmt.Errorf("netclient: write: %w", err))
			return
		}
	}
}

// begin sends an encoded call: it picks a connection and starts ca on
// it. On failure the call is recycled and nothing was sent.
func (c *Client) begin(ca *Call) error {
	cc, err := c.pick()
	if err == nil {
		err = cc.start(ca)
	}
	if err != nil {
		c.Finish(ca)
	}
	return err
}

// await is the one wait for a started call's result, bounded by budget
// when it is positive (0 waits for as long as the connection lives): if
// the budget lapses first the call is abandoned (its late response will
// be dropped by the reader) and a *DeadlineError returned. The timer is
// the call's own and is armed only here, so the deadline-armed steady
// state stays allocation-free.
func (c *Client) await(ca *Call, budget time.Duration) error {
	if budget <= 0 {
		return <-ca.done
	}
	ca.tm.Reset(budget)
	select {
	case err := <-ca.done:
		if !ca.tm.Stop() {
			<-ca.tm.C
		}
		return err
	case <-ca.tm.C:
		if ca.cc.abandon(ca.id) {
			return &DeadlineError{Budget: budget}
		}
		// The reader claimed the call before it could be abandoned: the
		// result is in flight, take it.
		return <-ca.done
	}
}

// exchange is every blocking op's round trip: it begins the encoded call,
// awaits its result within budget (0 = none), and recycles it, returning
// the applied-update count (SYNC, RESTORE) or METRICS payload the
// response carried — zero values unless err is nil.
func (c *Client) exchange(ca *Call, budget time.Duration) (seq uint64, snap []byte, err error) {
	if err = c.begin(ca); err != nil {
		return 0, nil, err
	}
	if err = c.await(ca, budget); err == nil {
		seq, snap = ca.seq, ca.snap
	}
	c.Finish(ca)
	return seq, snap, err
}

// getCall fetches a pooled call and stamps it with a fresh request id.
func (c *Client) getCall() *Call {
	ca := c.callPool.Get().(*Call)
	ca.id = c.nextID.Add(1)
	return ca
}

// Finish clears a call's request state and recycles it. It must only be
// called after the call's Done channel delivered its result (or when the
// call was never started).
func (c *Client) Finish(ca *Call) {
	ca.dst, ca.snap, ca.cc = nil, nil, nil
	c.callPool.Put(ca)
}

// Abandon gives up on a started call whose result was not received from
// Done — a hedged read's loser, an attempt past the caller's deadline —
// and recycles it at once: its id is tombstoned, so the reader drops the
// late response. A call the reader already claimed is first waited out,
// so nothing writes to its destination after Abandon returns.
func (c *Client) Abandon(ca *Call) {
	if !ca.cc.abandon(ca.id) {
		<-ca.done
	}
	c.Finish(ca)
}

// StartEmbed submits one embedding request without waiting: it validates,
// grows dst if needed (to batch*tables*dim), encodes, and writes the
// frame, returning the in-flight Call. The result is delivered exactly
// once on Done; after a nil result Dst holds the decoded response. The
// caller must Finish the call after draining Done, or Abandon it instead
// — this is the hedged read primitive, where the losing attempt is
// abandoned. A non-nil error means nothing was sent (validation or no
// usable connection).
func (c *Client) StartEmbed(dst []float32, perTableRows [][]int, batch int) (*Call, error) {
	return c.StartEmbedBudget(dst, perTableRows, batch, c.cfg.Deadline)
}

// StartEmbedBudget is StartEmbed with an explicit remaining deadline
// budget overriding Config.Deadline: the replica router stamps each
// failover or hedge attempt with the caller's remaining time, so a retry
// can never outlive the original request's budget. Zero means no
// deadline.
func (c *Client) StartEmbedBudget(dst []float32, perTableRows [][]int, batch int, budget time.Duration) (*Call, error) {
	// Checked here, so a malformed read fails without a round trip and the
	// encoder's length derivations are always in range.
	if err := c.geom.CheckRead(perTableRows, batch); err != nil {
		return nil, fmt.Errorf("netclient: %w", err)
	}
	need := batch * c.geom.Width()
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	ca := c.getCall()
	ca.dst = dst[:need]
	ca.buf = wire.AppendEmbed(ca.buf[:0], ca.id, wire.BudgetOf(budget), perTableRows, batch, c.geom.Reduction)
	if err := c.begin(ca); err != nil {
		return nil, err
	}
	return ca, nil
}

// EmbedInto submits one embedding request of `batch` samples and decodes
// the pooled [batch, tables*dim] response row-major into dst, which is
// grown if its capacity is insufficient and returned re-sliced to exactly
// batch*tables*dim. The result is bit-identical to the backend's
// in-process EmbedInto. A caller that reuses the returned slice performs
// zero heap allocations in steady state. Safe for concurrent use (with
// distinct dst buffers).
func (c *Client) EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error) {
	ca, err := c.StartEmbed(dst, perTableRows, batch)
	if err != nil {
		return nil, err
	}
	err = c.await(ca, c.cfg.Deadline)
	dst = ca.dst
	c.Finish(ca)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// validateUpdates checks one update batch against the announced geometry
// (runtime.CheckUpdates) and against what one frame of op (OpUpdate or
// OpSync) can hold.
func (c *Client) validateUpdates(ups []runtime.TableUpdate, op wire.Op) error {
	if err := runtime.CheckUpdates(ups, c.geom); err != nil {
		return fmt.Errorf("netclient: %w", err)
	}
	if len(ups) > wire.MaxUpdatesPerFrame {
		return fmt.Errorf("netclient: %d updates exceed the %d-per-frame protocol cap; split the batch",
			len(ups), wire.MaxUpdatesPerFrame)
	}
	rows := 0
	for _, up := range ups {
		rows += len(up.Rows)
	}
	frameBytes := c.geom.UpdateFrameBytes(op, len(ups), rows)
	// A frame over the limit would be rejected server-side as a protocol
	// violation, tearing down the shared connection and failing every
	// pipelined call on it — so it is refused here as a per-call error.
	if limit := c.frameLimit(); frameBytes > limit {
		return fmt.Errorf("netclient: update batch encodes to %d B, above the %d B frame limit; split the batch",
			frameBytes, limit)
	}
	return nil
}

// frameLimit is the largest frame this client may send: the smaller of
// its own limit and the one the server's handshake announced, past which
// the server's reader treats the frame as a protocol violation.
func (c *Client) frameLimit() int { return min(c.maxFrame, c.Hello().MaxFrameBytes) }

// borrowUpdates views ups as wire updates in the call's reused slice.
func (ca *Call) borrowUpdates(ups []runtime.TableUpdate) {
	if cap(ca.wu) < len(ups) {
		ca.wu = make([]wire.Update, len(ups))
	}
	ca.wu = ca.wu[:len(ups)]
	for i, up := range ups {
		ca.wu[i] = wire.Update{Table: up.Table, Rows: up.Rows, Grads: up.Grads.Data()}
	}
}

// releaseUpdates drops the borrowed views before pooling.
func (ca *Call) releaseUpdates() {
	for i := range ca.wu {
		ca.wu[i] = wire.Update{}
	}
}

// Update submits a gradient-update batch, mirroring
// serve.Server.Update / cluster.ApplyUpdates: when it returns nil the
// update is applied server-side and every later read observes it. Safe
// for concurrent use.
func (c *Client) Update(ups []runtime.TableUpdate) error {
	if err := c.validateUpdates(ups, wire.OpUpdate); err != nil {
		return err
	}
	ca := c.getCall()
	ca.borrowUpdates(ups)
	ca.buf = wire.AppendUpdate(ca.buf[:0], ca.id, wire.BudgetOf(c.cfg.Deadline), ca.wu)
	ca.releaseUpdates()
	_, _, err := c.exchange(ca, c.cfg.Deadline)
	return err
}

// Sync submits a sequenced update batch: "this is update number seq"
// (zero-based over the server's life). The server applies it only when
// seq matches its own applied count, acknowledges an already-applied seq
// without reapplying, and rejects a gap — which is what makes replaying
// an update log through reconnects exactly-once. It returns the server's
// applied count after the call: seq+1 whether this frame applied or was
// a replay of something already absorbed. Safe for concurrent use,
// though replay order is the caller's contract.
func (c *Client) Sync(seq uint64, ups []runtime.TableUpdate) (uint64, error) {
	if err := c.validateUpdates(ups, wire.OpSync); err != nil {
		return 0, err
	}
	ca := c.getCall()
	ca.borrowUpdates(ups)
	ca.buf = wire.AppendSync(ca.buf[:0], ca.id, seq, ca.wu)
	ca.releaseUpdates()
	srvSeq, _, err := c.exchange(ca, 0)
	return srvSeq, err
}

// MaxRestoreRows reports the largest row count one Restore call may
// hold: the geometry's per-frame update cap, shrunk if needed so the
// encoded frame fits the frame limit (frameLimit). A snapshot installer
// chunks by it.
func (c *Client) MaxRestoreRows() int { return c.geom.MaxRestoreRows(c.frameLimit()) }

// Restore streams one chunk of a full-table snapshot install: absolute
// values for len(rows) rows of one table, stamped with the snapshot's
// sequence number. Chunks with commit false install rows without moving
// the server's applied counter; the snapshot's final chunk sets commit,
// which fast-forwards the counter to seq — after that, catch-up replay
// continues from seq with Sync. The server rejects a snapshot older than
// its applied state. Returns the server's applied count after the call.
// Safe for concurrent use, though chunk order is the caller's contract.
func (c *Client) Restore(seq uint64, commit bool, table int, rows []int, vals []float32) (uint64, error) {
	if err := c.geom.CheckRows(table, rows, len(vals)); err != nil {
		return 0, fmt.Errorf("netclient: restore: %w", err)
	}
	if n := c.MaxRestoreRows(); len(rows) > n {
		return 0, fmt.Errorf("netclient: restore: %d rows above the %d a frame carries; chunk the install", len(rows), n)
	}
	ca := c.getCall()
	ca.buf = wire.AppendRestore(ca.buf[:0], ca.id, seq, commit, table, rows, vals)
	srvSeq, _, err := c.exchange(ca, 0)
	return srvSeq, err
}

// Metrics fetches the server's telemetry snapshot over the METRICS op:
// every series its registry holds (exact counters, gauges and latency
// histograms), to assert on or to render with Snapshot.WriteText. A
// server with no registry wired answers with an empty, well-formed
// snapshot; a payload without one is telemetry.ErrNoSnapshot.
func (c *Client) Metrics() (*telemetry.Snapshot, error) {
	ca := c.getCall()
	ca.buf = wire.AppendFrame(ca.buf[:0], wire.OpMetrics, ca.id, nil)
	_, payload, err := c.exchange(ca, 0)
	if err != nil {
		return nil, err
	}
	return telemetry.DecodeWirePayload(payload)
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	ca := c.getCall()
	ca.buf = wire.AppendFrame(ca.buf[:0], wire.OpPing, ca.id, nil)
	_, _, err := c.exchange(ca, 0)
	return err
}

// Close stops the reconnect supervisors, closes every connection, and
// waits for the readers to finish; calls still in flight fail with a
// connection-lost error. It is idempotent: every call, concurrent ones
// included, returns only after the readers have finished.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		close(c.closeCh)
		c.superWG.Wait()
		for _, slot := range c.slots {
			if cc := slot.cur.Load(); cc != nil {
				cc.fail(fmt.Errorf("netclient: client closed"))
			}
		}
		c.readerWG.Wait()
	})
	return nil
}
