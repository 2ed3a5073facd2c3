package netserve_test

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// stubBackend is a deterministic, instrumentable Backend: embeddings are
// a pure function of the request indices, and entered/release let tests
// hold requests in flight to exercise admission and drain.
type stubBackend struct {
	tables, reduction, dim, rows, maxBatch int

	mu      sync.Mutex
	updates []runtime.TableUpdate

	embeds  atomic.Int64
	entered chan struct{} // receives one token per EmbedInto entry (if non-nil)
	release chan struct{} // EmbedInto blocks for one token (if non-nil)
	failAll atomic.Bool
}

func newStub() *stubBackend {
	return &stubBackend{tables: 2, reduction: 2, dim: 4, rows: 64, maxBatch: 8}
}

// Geometry implements netserve.Backend.
func (b *stubBackend) Geometry() wire.Geometry {
	return wire.Geometry{Tables: b.tables, Reduction: b.reduction, Dim: b.dim, TableRows: b.rows, MaxBatch: b.maxBatch}
}

// stubValue is the deterministic embedding value at (table, sample,
// element k) for the given request rows.
func stubValue(rows [][]int, reduction, t, sample, k int) float32 {
	sum := 0
	for j := 0; j < reduction; j++ {
		sum += rows[t][sample*reduction+j]
	}
	return float32(sum*(t+1)*31 + k)
}

// EmbedInto implements netserve.Backend.
func (b *stubBackend) EmbedInto(dst []float32, rows [][]int, batch int) ([]float32, error) {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	if b.release != nil {
		<-b.release
	}
	if b.failAll.Load() {
		return nil, errors.New("stub backend failure")
	}
	b.embeds.Add(1)
	width := b.tables * b.dim
	for s := 0; s < batch; s++ {
		for t := 0; t < b.tables; t++ {
			for k := 0; k < b.dim; k++ {
				dst[s*width+t*b.dim+k] = stubValue(rows, b.reduction, t, s, k)
			}
		}
	}
	return dst, nil
}

// ApplyUpdates implements netserve.Backend.
func (b *stubBackend) ApplyUpdates(ups []runtime.TableUpdate) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.updates = append(b.updates, ups...)
	return nil
}

// startServer serves a stub backend on a loopback listener, returning the
// server, its address, and a cleanup-registered close.
func startServer(t *testing.T, b netserve.Backend, cfg netserve.Config) (*netserve.Server, string) {
	t.Helper()
	srv, err := netserve.New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Close, want nil", err)
		}
	})
	return srv, l.Addr().String()
}

// netCounter reads tensordimm_net_<name>_total from reg, the registry the
// server under test was built with (Config.Registry); a missing series
// fails the test.
func netCounter(t testing.TB, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	v, ok := reg.Snapshot().Counter("tensordimm_net_" + name + "_total")
	if !ok {
		t.Fatalf("no series tensordimm_net_%s_total", name)
	}
	return v
}

// counterSum sums a counter over every label set it is registered with in
// reg (one per shard behind a cluster); a missing series fails the test.
func counterSum(t testing.TB, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	var n uint64
	found := false
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			n += c.Value
			found = true
		}
	}
	if !found {
		t.Fatalf("no series %s", name)
	}
	return n
}

// netInflight reads the tensordimm_net_inflight gauge from reg.
func netInflight(t testing.TB, reg *telemetry.Registry) int64 {
	t.Helper()
	v, ok := reg.Snapshot().Gauge("tensordimm_net_inflight")
	if !ok {
		t.Fatal("no series tensordimm_net_inflight")
	}
	return int64(v)
}

func dialClient(t *testing.T, addr string, cfg netclient.Config) *netclient.Client {
	t.Helper()
	cl, err := netclient.Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func reqRows(g wire.Geometry, batch, seed int) [][]int {
	rows := make([][]int, g.Tables)
	for t := range rows {
		rows[t] = make([]int, batch*g.Reduction)
		for i := range rows[t] {
			rows[t][i] = (seed + t*7 + i*3) % g.TableRows
		}
	}
	return rows
}

func TestConfigValidation(t *testing.T) {
	b := newStub()
	if _, err := netserve.New(b, netserve.Config{MaxInflight: -1}); err == nil {
		t.Fatal("negative MaxInflight accepted")
	}
	// A geometry whose maximal response (1 Mi samples x 8 floats = 32 MiB)
	// exceeds the fixed frame limit is a config error.
	huge := newStub()
	huge.maxBatch = 1 << 20
	if _, err := netserve.New(huge, netserve.Config{}); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("geometry beyond the frame limit: err = %v", err)
	}
	bad := newStub()
	bad.tables = 0
	if _, err := netserve.New(bad, netserve.Config{}); err == nil {
		t.Fatal("zero-table backend geometry accepted")
	}
}

func TestEmbedUpdatePingMetricsRoundTrip(t *testing.T) {
	b := newStub()
	reg := telemetry.NewRegistry()
	_, addr := startServer(t, b, netserve.Config{Registry: reg})
	cl := dialClient(t, addr, netclient.Config{})

	g := cl.Geometry()
	want := wire.Geometry{Tables: 2, Reduction: 2, Dim: 4, TableRows: 64, MaxBatch: 8}
	if g != want {
		t.Fatalf("handshake geometry %+v, want %+v", g, want)
	}

	const batch = 3
	rows := reqRows(g, batch, 5)
	got, err := cl.EmbedInto(nil, rows, batch)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < batch; s++ {
		for tt := 0; tt < g.Tables; tt++ {
			for k := 0; k < g.Dim; k++ {
				want := stubValue(rows, g.Reduction, tt, s, k)
				if got[s*g.Width()+tt*g.Dim+k] != want {
					t.Fatalf("sample %d table %d elem %d: %g, want %g", s, tt, k,
						got[s*g.Width()+tt*g.Dim+k], want)
				}
			}
		}
	}

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{"tensordimm_net_requests_total": 1, "tensordimm_net_pings_total": 1, "tensordimm_net_shed_total": 0} {
		if v, ok := snap.Counter(name); !ok || v != want {
			t.Fatalf("server snapshot %s = %d, %v; want %d, true", name, v, ok, want)
		}
	}

	req, pings, shed, bad := netCounter(t, reg, "requests"), netCounter(t, reg, "pings"), netCounter(t, reg, "shed"), netCounter(t, reg, "bad_frames")
	if req != 1 || pings != 1 || shed != 0 || bad != 0 {
		t.Fatalf("metrics: %d requests, %d pings, %d shed, %d bad frames", req, pings, shed, bad)
	}
}

func TestBackendFailureMapsToInternalError(t *testing.T) {
	b := newStub()
	b.failAll.Store(true)
	_, addr := startServer(t, b, netserve.Config{})
	cl := dialClient(t, addr, netclient.Config{})
	g := cl.Geometry()
	_, err := cl.EmbedInto(nil, reqRows(g, 1, 0), 1)
	var se *netclient.ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrInternal {
		t.Fatalf("err = %v, want INTERNAL ServerError", err)
	}
}

func TestAdmissionControlShedsWithOverloaded(t *testing.T) {
	b := newStub()
	b.entered = make(chan struct{}, 8)
	b.release = make(chan struct{})
	reg := telemetry.NewRegistry()
	_, addr := startServer(t, b, netserve.Config{MaxInflight: 2, Registry: reg})
	cl := dialClient(t, addr, netclient.Config{})
	g := cl.Geometry()

	// Two requests occupy the whole budget.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.EmbedInto(nil, reqRows(g, 1, i), 1)
		}(i)
	}
	<-b.entered
	<-b.entered

	// The third is shed fail-fast with OVERLOADED while the budget is full.
	_, err := cl.EmbedInto(nil, reqRows(g, 1, 9), 1)
	var se *netclient.ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrOverloaded {
		t.Fatalf("overloaded request: err = %v, want OVERLOADED ServerError", err)
	}
	if shed, inflight := netCounter(t, reg, "shed"), netInflight(t, reg); shed != 1 || inflight != 2 {
		t.Fatalf("after shed: %d shed, %d in flight, want 1, 2", shed, inflight)
	}

	// Release the budget; the held requests complete successfully.
	close(b.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("held request %d: %v", i, err)
		}
	}
	// And with budget free again, new requests are admitted.
	if _, err := cl.EmbedInto(nil, reqRows(g, 1, 3), 1); err != nil {
		t.Fatal(err)
	}
	if shed, req, inflight := netCounter(t, reg, "shed"), netCounter(t, reg, "requests"), netInflight(t, reg); shed != 1 || req != 3 || inflight != 0 {
		t.Fatalf("final metrics: %d shed, %d requests, %d in flight", shed, req, inflight)
	}
}

func TestGracefulDrainCompletesInflight(t *testing.T) {
	b := newStub()
	b.entered = make(chan struct{}, 1)
	b.release = make(chan struct{})
	srv, addr := startServer(t, b, netserve.Config{})
	cl := dialClient(t, addr, netclient.Config{})
	g := cl.Geometry()

	rows := reqRows(g, 2, 1)
	resCh := make(chan error, 1)
	var got []float32
	go func() {
		var err error
		got, err = cl.EmbedInto(nil, rows, 2)
		resCh <- err
	}()
	<-b.entered // the request is in the backend

	closeReturned := make(chan struct{})
	go func() { srv.Close(); close(closeReturned) }()
	// Close must not finish while the request is still executing.
	select {
	case <-closeReturned:
		t.Fatal("Close returned with a request in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(b.release)
	if err := <-resCh; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if got[0] != stubValue(rows, g.Reduction, 0, 0, 0) {
		t.Fatal("drained request returned wrong values")
	}
	<-closeReturned

	// After the drain, new connections are refused.
	if _, err := netclient.Dial(addr, netclient.Config{}); err == nil {
		t.Fatal("dial succeeded after Close")
	}
	// And Close is idempotent.
	srv.Close()
}

func TestProtocolViolationsCloseConnection(t *testing.T) {
	b := newStub()
	reg := telemetry.NewRegistry()
	_, addr := startServer(t, b, netserve.Config{Registry: reg})

	// Bad magic: the connection is dropped without a server hello.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0})
	if buf := make([]byte, 1); readEventually(nc, buf) != 0 {
		t.Fatal("server answered a bad-magic handshake")
	}
	nc.Close()

	// Good handshake, then an oversized frame length: connection closed.
	nc, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write(wire.AppendClientHello(nil, 0))
	if _, _, err := wire.ReadServerHello(nc, nil); err != nil {
		t.Fatal(err)
	}
	nc.Write(binary.LittleEndian.AppendUint32(nil, 1<<31-1))
	if buf := make([]byte, 1); readEventually(nc, buf) != 0 {
		t.Fatal("server kept talking after an oversized frame")
	}
	nc.Close()

	// Good handshake, then an unknown op: connection closed.
	nc, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write(wire.AppendClientHello(nil, 0))
	if _, _, err := wire.ReadServerHello(nc, nil); err != nil {
		t.Fatal(err)
	}
	nc.Write(wire.AppendFrame(nil, wire.Op(200), 1, nil))
	if buf := make([]byte, 1); readEventually(nc, buf) != 0 {
		t.Fatal("server kept talking after an unknown op")
	}
	nc.Close()

	waitFor(t, time.Second, func() bool { return netCounter(t, reg, "bad_frames") >= 3 })
}

// TestMalformedRequestGetsBadRequest pins that a shape-valid frame with
// out-of-range content is answered (BAD_REQUEST) rather than dropped.
func TestMalformedRequestGetsBadRequest(t *testing.T) {
	b := newStub()
	_, addr := startServer(t, b, netserve.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write(wire.AppendClientHello(nil, 0))
	h, _, err := wire.ReadServerHello(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := h.Geom
	rows := make([][]int, g.Tables)
	for t := range rows {
		rows[t] = make([]int, g.Reduction)
	}
	rows[0][0] = g.TableRows // out of range
	nc.Write(wire.AppendEmbed(nil, 7, 0, rows, 1, g.Reduction))
	op, id, payload, _, err := wire.ReadFrame(nc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op != wire.OpError || id != 7 {
		t.Fatalf("op %d id %d, want OpError id 7", op, id)
	}
	code, _, err := wire.DecodeError(payload)
	if err != nil || code != wire.ErrBadRequest {
		t.Fatalf("code %v err %v, want BAD_REQUEST", code, err)
	}
}

// TestPipelinedOutOfOrderCompletion holds an early request in the backend
// while a later one on the same connection completes first — the response
// correlation the request ids exist for.
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	b := newStub()
	b.entered = make(chan struct{}, 2)
	b.release = make(chan struct{})
	_, addr := startServer(t, b, netserve.Config{})
	cl := dialClient(t, addr, netclient.Config{})
	g := cl.Geometry()

	slowRows := reqRows(g, 1, 1)
	slowDone := make(chan error, 1)
	var slowGot []float32
	go func() {
		var err error
		slowGot, err = cl.EmbedInto(nil, slowRows, 1)
		slowDone <- err
	}()
	<-b.entered // slow request is parked in the backend

	// A ping on the same connection completes while the embed is parked:
	// the response stream is not head-of-line blocked.
	pingDone := make(chan error, 1)
	go func() { pingDone <- cl.Ping() }()
	select {
	case err := <-pingDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ping blocked behind a parked embed: no out-of-order completion")
	}

	close(b.release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	if slowGot[0] != stubValue(slowRows, g.Reduction, 0, 0, 0) {
		t.Fatal("parked request returned wrong values")
	}
}

// readEventually reads until data or EOF, returning the byte count (0 on
// clean close).
func readEventually(nc net.Conn, buf []byte) int {
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _ := nc.Read(buf)
	return n
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeAfterCloseFails pins that Serve on a closed server returns an
// error instead of accepting.
func TestServeAfterCloseFails(t *testing.T) {
	srv, err := netserve.New(newStub(), netserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := srv.Serve(l); err == nil {
		t.Fatal("Serve on a closed server succeeded")
	}
}
