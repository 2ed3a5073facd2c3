// Package netclient is the Go client of the network serving plane: it
// speaks the internal/wire protocol to a netserve.Server over a small
// pool of TCP connections and exposes the same request surface as the
// in-process serving layers (EmbedInto, Update, Metrics, Ping), plus the
// replica-oriented extensions a router needs: sequenced updates (Sync),
// asynchronous embeds (StartEmbed, for hedged reads), and supervised
// reconnect with exponential backoff (Config.Reconnect).
//
// Requests pipeline: any number of goroutines may call into one Client
// concurrently, each request is stamped with a connection-local id,
// writes interleave on the shared connections, and a per-connection
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
// Connection lifecycle: without Reconnect, a lost connection is broken
// permanently and calls fail until the pool is exhausted — the original
// fail-fast contract. With Reconnect, each lost connection is redialed in
// the background with exponential backoff; the re-handshake must announce
// the geometry learned at Dial (a restarted server with a different model
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
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// readBufBytes sizes the buffered reader on each connection, so one read
// syscall pulls in many pipelined (or coalesced) response frames.
const readBufBytes = 64 << 10

// Config tunes a client. The zero value of every field selects a
// documented default at Dial; negative values are invalid.
type Config struct {
	// Conns is the connection pool size. Requests round-robin across the
	// pool; more connections spread socket write contention at the cost of
	// server-side reader goroutines. Zero defaults to 1.
	Conns int
	// MaxFrameBytes caps one frame's wire size. Zero defaults to
	// wire.DefaultMaxFrameBytes. It must admit the largest response the
	// announced geometry can produce; Dial validates that.
	MaxFrameBytes int
	// DialTimeout bounds one TCP connect plus handshake attempt. Zero
	// defaults to 5 seconds.
	DialTimeout time.Duration
	// RetryFor keeps re-dialing a refused connection until this much time
	// has elapsed — the knob that lets a client start before its server
	// in scripted two-process runs. Zero means a single attempt.
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

	// Reconnect supervises every pooled connection: when one is lost, a
	// background goroutine redials it with exponential backoff instead of
	// leaving it permanently broken. A reconnect handshake must announce
	// the geometry learned at Dial; a mismatching server (restarted with a
	// different model) is treated as still down and retried. False keeps
	// the original contract: a lost connection is broken for good.
	Reconnect bool
	// ReconnectMin is the first redial backoff. Zero defaults to 50ms.
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

// budgetMicros converts a deadline budget to its wire form: microseconds
// clamped to uint32, with a floor of 1µs for any positive budget so "has
// a deadline" survives the rounding (0 is reserved for "none").
func budgetMicros(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	if us := d.Microseconds(); us >= math.MaxUint32 {
		return math.MaxUint32
	} else if us < 1 {
		return 1
	} else {
		return uint32(us)
	}
}

// Call is one in-flight request: the encode buffer, the destination the
// reader decodes an embed response into, and the reply channel. Calls are
// pooled per client; a Call is owned by its submitter from StartEmbed (or
// an internal submit) until Finish, with the reader borrowing it between
// correlation and reply delivery. A started Call ends either with its
// result received from Done and the call returned with Finish, or — a
// hedged read's loser — with Abandon.
type Call struct {
	buf  []byte
	dst  []float32
	snap []byte // METRICS payload, copied off the read buffer
	wu   []wire.Update
	seq  uint64
	done chan error
	// cc and id locate the started call on the wire, for abandoning it.
	cc *clientConn
	id uint64
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
	nextID    atomic.Uint64
	rdDone    chan struct{}
}

// connSlot is one position in the pool. Without Reconnect it holds its
// Dial-time connection forever; with Reconnect the supervisor swaps in a
// fresh connection after each loss (nil while down).
type connSlot struct {
	cur atomic.Pointer[clientConn]
}

// Client is a pooled, pipelined client of one serving endpoint. Create
// with Dial, submit from any number of goroutines, and Close when done.
type Client struct {
	cfg   Config
	addr  string
	geom  wire.Geometry
	hello atomic.Pointer[wire.Hello] // latest handshake observed

	slots     []*connSlot
	rr        atomic.Uint64
	callPool  sync.Pool
	timerPool sync.Pool // stopped *time.Timer, for deadline waits

	closed   atomic.Bool
	closeCh  chan struct{}
	superWG  sync.WaitGroup
	readerWG sync.WaitGroup
}

// Dial connects cfg.Conns connections to addr, performs the protocol
// handshake on each, and verifies every connection announces the same
// geometry. With cfg.RetryFor > 0 a refused connection is retried until
// the deadline, so a client may start before its server.
func Dial(addr string, cfg Config) (*Client, error) {
	if cfg.Conns < 0 || cfg.MaxFrameBytes < 0 || cfg.DialTimeout < 0 || cfg.RetryFor < 0 ||
		cfg.ReconnectMin < 0 || cfg.ReconnectMax < 0 || cfg.Deadline < 0 {
		return nil, fmt.Errorf("netclient: negative config (Conns %d, MaxFrameBytes %d, DialTimeout %v, RetryFor %v, ReconnectMin %v, ReconnectMax %v, Deadline %v)",
			cfg.Conns, cfg.MaxFrameBytes, cfg.DialTimeout, cfg.RetryFor, cfg.ReconnectMin, cfg.ReconnectMax, cfg.Deadline)
	}
	if cfg.Conns == 0 {
		cfg.Conns = 1
	}
	if cfg.MaxFrameBytes == 0 {
		cfg.MaxFrameBytes = wire.DefaultMaxFrameBytes
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
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
	c := &Client{cfg: cfg, addr: addr, closeCh: make(chan struct{})}
	c.callPool.New = func() any { return &Call{done: make(chan error, 1)} }
	c.timerPool.New = func() any {
		tm := time.NewTimer(time.Hour)
		if !tm.Stop() {
			<-tm.C
		}
		return tm
	}
	deadline := time.Now().Add(cfg.RetryFor)
	for i := 0; i < cfg.Conns; i++ {
		cc, h, err := dialOne(addr, cfg, deadline)
		if err != nil {
			c.Close()
			return nil, err
		}
		if i == 0 {
			c.geom = h.Geom
			maxResp := wire.HeaderBytes + 4*h.Geom.MaxBatch*h.Geom.Width()
			if cfg.MaxFrameBytes < maxResp {
				cc.nc.Close()
				c.Close()
				return nil, fmt.Errorf("netclient: MaxFrameBytes %d below the %d B a maximal response needs", cfg.MaxFrameBytes, maxResp)
			}
		} else if h.Geom != c.geom {
			cc.nc.Close()
			c.Close()
			return nil, fmt.Errorf("netclient: connection %d announced geometry %+v, connection 0 got %+v", i, h.Geom, c.geom)
		}
		hc := h
		c.hello.Store(&hc)
		slot := &connSlot{}
		slot.cur.Store(cc)
		c.slots = append(c.slots, slot)
		c.readerWG.Add(2)
		go c.readLoop(cc)
		go c.flushLoop(cc)
	}
	if cfg.Reconnect {
		for _, slot := range c.slots {
			c.superWG.Add(1)
			go c.supervise(slot)
		}
	}
	return c, nil
}

// dialOne establishes and handshakes a single connection, retrying
// refused connects until the deadline.
func dialOne(addr string, cfg Config, deadline time.Time) (*clientConn, wire.Hello, error) {
	for {
		nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
		if err != nil {
			if time.Now().Before(deadline) {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			return nil, wire.Hello{}, fmt.Errorf("netclient: dial %s: %w", addr, err)
		}
		if _, err := nc.Write(wire.AppendClientHello(make([]byte, 0, 16), cfg.MaxFrameBytes)); err != nil {
			nc.Close()
			return nil, wire.Hello{}, fmt.Errorf("netclient: handshake write: %w", err)
		}
		br := bufio.NewReaderSize(nc, readBufBytes)
		h, _, err := wire.ReadServerHello(br, nil)
		if err != nil {
			nc.Close()
			return nil, wire.Hello{}, fmt.Errorf("netclient: handshake: %w", err)
		}
		return &clientConn{
			nc:        nc,
			br:        br,
			w:         wire.NewWriter(cfg.MaxFrameBytes, h.MaxFrameBytes),
			pending:   make(map[uint64]*Call),
			abandoned: make(map[uint64]struct{}),
			rdDone:    make(chan struct{}),
		}, h, nil
	}
}

// supervise watches one slot: when its connection dies, it reports the
// loss, then redials with exponential backoff until a server announcing
// the original geometry is back, swaps the fresh connection in, and
// reports it up. Runs until Close.
func (c *Client) supervise(slot *connSlot) {
	defer c.superWG.Done()
	for {
		cc := slot.cur.Load()
		if cc != nil {
			select {
			case <-cc.rdDone:
			case <-c.closeCh:
				return
			}
			slot.cur.Store(nil)
			if c.cfg.OnDown != nil {
				cc.pmu.Lock()
				err := cc.broken
				cc.pmu.Unlock()
				if err == nil {
					err = fmt.Errorf("netclient: connection lost")
				}
				c.cfg.OnDown(err)
			}
		}
		backoff := c.cfg.ReconnectMin
		for {
			select {
			case <-c.closeCh:
				return
			default:
			}
			ncc, h, err := dialOne(c.addr, c.cfg, time.Time{})
			if err == nil && h.Geom != c.geom {
				ncc.nc.Close()
				err = fmt.Errorf("netclient: reconnect handshake announced geometry %+v, want %+v", h.Geom, c.geom)
			}
			if err == nil {
				slot.cur.Store(ncc)
				hc := h
				c.hello.Store(&hc)
				c.readerWG.Add(2)
				go c.readLoop(ncc)
				go c.flushLoop(ncc)
				if c.cfg.OnUp != nil {
					c.cfg.OnUp(h)
				}
				break
			}
			select {
			case <-c.closeCh:
				return
			case <-time.After(jitter(backoff)):
			}
			if backoff *= 2; backoff > c.cfg.ReconnectMax {
				backoff = c.cfg.ReconnectMax
			}
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
// live. With Reconnect it flips back to true once the supervisor has a
// fresh connection up; without it, false is permanent.
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
		op, id, payload, buf, err = wire.ReadFrame(cc.br, buf, c.cfg.MaxFrameBytes)
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
	case wire.OpSyncResp:
		ca.seq, res = wire.DecodeSyncResp(payload)
	case wire.OpRestoreResp:
		ca.seq, res = wire.DecodeRestoreResp(payload)
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

// start registers ca under id on cc (recording both in ca) and appends
// the frame in ca.buf to the connection's Writer, which copies it. A
// non-nil return means the call was never registered (the connection was
// already broken) and nothing will arrive on done; after a nil return the
// result — including a write failure, which the reader delivers when it
// fails the pending set — arrives exactly once on done.
func (cc *clientConn) start(ca *Call, id uint64) error {
	cc.pmu.Lock()
	if cc.broken != nil {
		err := cc.broken
		cc.pmu.Unlock()
		return err
	}
	ca.cc, ca.id = cc, id
	cc.pending[id] = ca
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

// roundTrip starts ca and waits for its response.
func (cc *clientConn) roundTrip(ca *Call, id uint64) error {
	if err := cc.start(ca, id); err != nil {
		return err
	}
	return <-ca.done
}

// await waits for a started call's result, bounded by the deadline budget
// when one is set: if the budget lapses first the call is abandoned (its
// late response will be dropped by the reader) and a *DeadlineError
// returned. The expiry timer is pooled, so the deadline-armed steady
// state stays allocation-free.
func (c *Client) await(ca *Call, budget time.Duration) error {
	if budget <= 0 {
		return <-ca.done
	}
	tm := c.timerPool.Get().(*time.Timer)
	tm.Reset(budget)
	select {
	case err := <-ca.done:
		if !tm.Stop() {
			<-tm.C
		}
		c.timerPool.Put(tm)
		return err
	case <-tm.C:
		c.timerPool.Put(tm)
		if ca.cc.abandon(ca.id) {
			return &DeadlineError{Budget: budget}
		}
		// The reader claimed the call before it could be abandoned: the
		// result is in flight, take it.
		return <-ca.done
	}
}

// getCall fetches a pooled call.
func (c *Client) getCall() *Call { return c.callPool.Get().(*Call) }

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
	dst = dst[:need]
	cc, err := c.pick()
	if err != nil {
		return nil, err
	}
	ca := c.getCall()
	ca.dst = dst
	id := cc.nextID.Add(1)
	ca.buf = wire.AppendEmbed(ca.buf[:0], id, budgetMicros(budget), perTableRows, batch, c.geom.Reduction)
	if err := cc.start(ca, id); err != nil {
		c.Finish(ca)
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

// Embed is EmbedInto with a freshly allocated destination.
func (c *Client) Embed(perTableRows [][]int, batch int) ([]float32, error) {
	return c.EmbedInto(nil, perTableRows, batch)
}

// validateUpdates checks one update batch against the announced geometry
// (runtime.CheckUpdates) and against what one frame can hold, given the
// payload overhead before the update list (4+2 B budget+count for UPDATE,
// 8+2 B seq+count for SYNC).
func (c *Client) validateUpdates(ups []runtime.TableUpdate, overhead int) error {
	if err := runtime.CheckUpdates(ups, c.geom); err != nil {
		return fmt.Errorf("netclient: %w", err)
	}
	if len(ups) > wire.MaxUpdatesPerFrame {
		return fmt.Errorf("netclient: %d updates exceed the %d-per-frame protocol cap; split the batch",
			len(ups), wire.MaxUpdatesPerFrame)
	}
	frameBytes := wire.HeaderBytes + overhead
	for _, up := range ups {
		frameBytes += 8 + 4*len(up.Rows) + 4*len(up.Rows)*c.geom.Dim
	}
	// A frame over the limit would be rejected server-side as a protocol
	// violation, tearing down the shared connection and failing every
	// pipelined call on it — so it is refused here as a per-call error.
	if frameBytes > c.cfg.MaxFrameBytes {
		return fmt.Errorf("netclient: update batch encodes to %d B, above the %d B frame limit; split the batch",
			frameBytes, c.cfg.MaxFrameBytes)
	}
	return nil
}

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
	if err := c.validateUpdates(ups, 6); err != nil {
		return err
	}
	cc, err := c.pick()
	if err != nil {
		return err
	}
	ca := c.getCall()
	ca.borrowUpdates(ups)
	id := cc.nextID.Add(1)
	ca.buf = wire.AppendUpdate(ca.buf[:0], id, budgetMicros(c.cfg.Deadline), ca.wu)
	ca.releaseUpdates()
	if err = cc.start(ca, id); err == nil {
		err = c.await(ca, c.cfg.Deadline)
	}
	c.Finish(ca)
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
	if err := c.validateUpdates(ups, 10); err != nil {
		return 0, err
	}
	cc, err := c.pick()
	if err != nil {
		return 0, err
	}
	ca := c.getCall()
	ca.borrowUpdates(ups)
	id := cc.nextID.Add(1)
	ca.buf = wire.AppendSync(ca.buf[:0], id, seq, ca.wu)
	ca.releaseUpdates()
	err = cc.roundTrip(ca, id)
	srvSeq := ca.seq
	c.Finish(ca)
	if err != nil {
		return 0, err
	}
	return srvSeq, nil
}

// MaxRestoreRows reports the largest row count one Restore call may
// hold: the geometry's per-frame update cap, shrunk if needed so the
// encoded frame fits both this client's frame limit and the one the
// server's handshake announced. A snapshot installer chunks by it.
func (c *Client) MaxRestoreRows() int {
	g := c.geom
	n := g.MaxBatch * g.Reduction
	limit := min(c.cfg.MaxFrameBytes, c.Hello().MaxFrameBytes)
	if fit := (limit - wire.HeaderBytes - 17) / (4 + 4*g.Dim); fit < n {
		n = fit
	}
	return max(n, 1)
}

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
	cc, err := c.pick()
	if err != nil {
		return 0, err
	}
	ca := c.getCall()
	id := cc.nextID.Add(1)
	ca.buf = wire.AppendRestore(ca.buf[:0], id, seq, commit, table, rows, vals)
	err = cc.roundTrip(ca, id)
	srvSeq := ca.seq
	c.Finish(ca)
	if err != nil {
		return 0, err
	}
	return srvSeq, nil
}

// Metrics fetches the server's telemetry snapshot over the METRICS op:
// every series its registry holds (exact counters, gauges and latency
// histograms), to assert on or to render with Snapshot.WriteText. A
// server with no registry wired answers with an empty, well-formed
// snapshot; a payload without one is telemetry.ErrNoSnapshot.
func (c *Client) Metrics() (*telemetry.Snapshot, error) {
	cc, err := c.pick()
	if err != nil {
		return nil, err
	}
	ca := c.getCall()
	id := cc.nextID.Add(1)
	ca.buf = wire.AppendFrame(ca.buf[:0], wire.OpMetrics, id, nil)
	err = cc.roundTrip(ca, id)
	payload := ca.snap
	c.Finish(ca)
	if err != nil {
		return nil, err
	}
	return telemetry.DecodeWirePayload(payload)
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	cc, err := c.pick()
	if err != nil {
		return err
	}
	ca := c.getCall()
	id := cc.nextID.Add(1)
	ca.buf = wire.AppendFrame(ca.buf[:0], wire.OpPing, id, nil)
	err = cc.roundTrip(ca, id)
	c.Finish(ca)
	return err
}

// Close stops the reconnect supervisors, closes every connection, and
// waits for the readers to finish; calls still in flight fail with a
// connection-lost error. It is idempotent.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.closeCh)
	c.superWG.Wait()
	for _, slot := range c.slots {
		if cc := slot.cur.Load(); cc != nil {
			cc.fail(fmt.Errorf("netclient: client closed"))
		}
	}
	c.readerWG.Wait()
	return nil
}
