package netserve_test

import (
	"errors"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/isa"
	"tensordimm/internal/netserve"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// wireStub is a stubBackend whose reads wait on the network: it has the
// SendEmbedInto half a replica router has. Each read goes through a real
// cluster.Router over a one-shard table-wise transport, so the Pending it
// returns is the router's own. The transport's Wait stands in for the
// round trip: it is gated by the stub's entered/release channels and
// answers with values that merge to exactly stubValue. The stub records
// every send in call order, with whether it ran on a connection's reader.
type wireStub struct {
	*stubBackend
	router *cluster.Router

	failSend atomic.Bool  // SendEmbedInto fails without sending
	direct   atomic.Int64 // EmbedInto calls: a wire read must never make one

	mu       sync.Mutex
	sent     []int // the first row of each sent read, in call order
	onReader []bool
}

func newWireStub() *wireStub {
	b := &wireStub{stubBackend: newStub()}
	g := b.Geometry()
	mc := recsys.Config{Tables: g.Tables, Reduction: g.Reduction, EmbDim: g.Dim, TableRows: g.TableRows, Op: isa.RAdd}
	place := cluster.NewPlacement(cluster.TableWise, 1, g.Tables, g.TableRows)
	b.router = cluster.NewRouter("wire-stub", mc, place, g.MaxBatch, wireTransport{b}, nil)
	return b
}

// SendEmbedInto is the submit half netserve looks for on a backend whose
// reads wait on the network.
func (b *wireStub) SendEmbedInto(dst []float32, rows [][]int, batch int) (cluster.Pending, error) {
	b.mu.Lock()
	b.sent = append(b.sent, rows[0][0])
	b.onReader = append(b.onReader, calledFrom("netserve.(*conn).readLoop"))
	b.mu.Unlock()
	if b.failSend.Load() {
		return cluster.Pending{}, errors.New("wire stub: send failed")
	}
	return b.router.StartEmbedInto(dst, rows, batch)
}

// EmbedInto counts a read run whole on the executor pool.
func (b *wireStub) EmbedInto(dst []float32, rows [][]int, batch int) ([]float32, error) {
	b.direct.Add(1)
	return b.stubBackend.EmbedInto(dst, rows, batch)
}

// sends returns the recorded sends and whether each ran on a reader.
func (b *wireStub) sends() ([]int, []bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.sent), slices.Clone(b.onReader)
}

// calledFrom reports whether fn (a package-qualified function name suffix)
// is on the calling goroutine's stack.
func calledFrom(fn string) bool {
	pc := make([]uintptr, 64)
	frames := goruntime.CallersFrames(pc[:goruntime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// wireTransport is the stub's one-shard router transport.
type wireTransport struct{ b *wireStub }

func (tr wireTransport) NewCall() cluster.Call { return &wireCall{b: tr.b} }

func (wireTransport) Update(int, runtime.TableUpdate) error { return nil }

// wireCall is one read's sub-request: Start keeps the flat rows, Wait
// blocks on the stub's gate and gathers them.
type wireCall struct {
	b    *wireStub
	rows []int
	out  []float32
}

func (c *wireCall) Start(_ int, rows []int, _ time.Time) { c.rows = rows }

// Wait answers flat row t*TableRows+r of table t with r*(t+1)*31 + k/2 in
// element k, so the router's sum over a sample's two rows is stubValue.
func (c *wireCall) Wait(int) ([]float32, error) {
	s := c.b.stubBackend
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.release != nil {
		<-s.release
	}
	c.out = c.out[:0]
	for _, flat := range c.rows {
		t, r := flat/s.rows, flat%s.rows
		for k := 0; k < s.dim; k++ {
			c.out = append(c.out, float32(r*(t+1)*31)+float32(k)/2)
		}
	}
	return c.out, nil
}

func (c *wireCall) Release() {}

// TestWireReadsSentOnReader pins where a read of a backend that waits on
// the network runs: the connection's reader sends it (SendEmbedInto) and
// the executor pool only awaits it. With every await held at the gate, a
// BATCH of k reads and a ping gets its PONG with all k reads already sent,
// in frame order, each from the reader; the backend's EmbedInto is never
// called. Released, every answer is correct and no admission slot is
// left. A send that fails is answered INTERNAL at once, and its slot
// returned.
func TestWireReadsSentOnReader(t *testing.T) {
	const k = 6
	b := newWireStub()
	b.release = make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(b.release) }) }
	reg := telemetry.NewRegistry()
	_, addr := startServer(t, b, netserve.Config{Registry: reg})
	t.Cleanup(release) // runs before the server's Close, so a failure cannot wedge the drain
	nc, h := rawDial(t, addr)
	g := h.Geom
	nc.SetDeadline(time.Now().Add(10 * time.Second))

	subs := make([][]byte, 0, k+1)
	for i := 1; i <= k; i++ {
		subs = append(subs, wire.AppendEmbed(nil, uint64(i), 0, reqRows(g, 1, i), 1, g.Reduction))
	}
	subs = append(subs, wire.AppendFrame(nil, wire.OpPing, k+1, nil))
	if _, err := nc.Write(wire.AppendBatch(nil, 0, subs...)); err != nil {
		t.Fatal(err)
	}
	if op, id, _, _, err := wire.ReadFrame(nc, nil, 0); err != nil || op != wire.OpPong || id != k+1 {
		t.Fatalf("first response op %d id %d (%v), want the PONG %d while every read is held", op, id, err, k+1)
	}
	sent, onReader := b.sends()
	want := make([]int, k)
	for i := range want {
		want[i] = reqRows(g, 1, i+1)[0][0]
	}
	if !slices.Equal(sent, want) {
		t.Fatalf("reads sent before the PONG: first rows %v, want %v (all %d, in frame order)", sent, want, k)
	}
	for i, ok := range onReader {
		if !ok {
			t.Fatalf("read %d was sent off the connection's reader", i+1)
		}
	}

	release()
	for id, payload := range readEmbedResponses(t, nc, k) {
		checkStubResponse(t, g, payload, int(id))
	}
	waitFor(t, 5*time.Second, func() bool { return netInflight(t, reg) == 0 })
	if n := b.direct.Load(); n != 0 {
		t.Fatalf("backend EmbedInto ran %d reads, want 0: a wire read is awaited, not run, on the pool", n)
	}
	if n := netCounter(t, reg, "requests"); n != k {
		t.Fatalf("server completed %d reads, want %d", n, k)
	}

	b.failSend.Store(true)
	op, id, payload := rawCall(t, nc, wire.AppendEmbed(nil, 100, 0, reqRows(g, 1, 1), 1, g.Reduction))
	if op != wire.OpError || id != 100 {
		t.Fatalf("failed send answered op %d id %d, want an error frame for 100", op, id)
	}
	if code, _, _ := wire.DecodeError(payload); code != wire.ErrInternal {
		t.Fatalf("failed send answered %v, want %v", code, wire.ErrInternal)
	}
	if inflight, failures := netInflight(t, reg), netCounter(t, reg, "failures"); inflight != 0 || failures != 1 {
		t.Fatalf("after a failed send: %d in flight, %d failures; want 0 and 1", inflight, failures)
	}
}
