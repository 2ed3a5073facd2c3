package netclient_test

import (
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
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// echoBackend is a minimal deterministic Backend: element k of sample s,
// table t is rows[t][s*reduction] + k. Updates are recorded.
type echoBackend struct {
	upMu    sync.Mutex
	applied atomic.Int64
	rows    []int
}

// Geometry implements netserve.Backend.
func (b *echoBackend) Geometry() wire.Geometry {
	return wire.Geometry{Tables: 2, Reduction: 2, Dim: 4, TableRows: 100, MaxBatch: 8}
}

// EmbedInto implements netserve.Backend.
func (b *echoBackend) EmbedInto(dst []float32, rows [][]int, batch int) ([]float32, error) {
	const tables, reduction, dim = 2, 2, 4
	for s := 0; s < batch; s++ {
		for t := 0; t < tables; t++ {
			for k := 0; k < dim; k++ {
				dst[s*tables*dim+t*dim+k] = float32(rows[t][s*reduction] + k)
			}
		}
	}
	return dst, nil
}

// ApplyUpdates implements netserve.Backend.
func (b *echoBackend) ApplyUpdates(ups []runtime.TableUpdate) error {
	b.upMu.Lock()
	defer b.upMu.Unlock()
	for _, up := range ups {
		b.rows = append(b.rows, up.Rows...)
	}
	b.applied.Add(int64(len(ups)))
	return nil
}

func startEcho(t *testing.T) (*echoBackend, string) {
	t.Helper()
	b := &echoBackend{}
	srv, err := netserve.New(b, netserve.Config{Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return b, l.Addr().String()
}

func TestDialValidationAndFailures(t *testing.T) {
	if _, err := netclient.Dial("x", netclient.Config{Conns: -1}); err == nil {
		t.Fatal("negative Conns accepted")
	}
	if _, err := netclient.Dial("x", netclient.Config{RetryFor: -time.Second}); err == nil {
		t.Fatal("negative RetryFor accepted")
	}
	// Nothing listening, no retry budget: fail immediately.
	if _, err := netclient.Dial("127.0.0.1:1", netclient.Config{}); err == nil {
		t.Fatal("dial to a dead port succeeded")
	}
	// A frame limit below one maximal response is a config error.
	_, addr := startEcho(t)
	if _, err := netclient.DialFrameLimit(addr, netclient.Config{}, 64); err == nil ||
		!strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("undersized frame limit: err = %v", err)
	}
}

// TestDialRetryOutlivesLateServer starts the server after the client
// begins dialing — the two-terminal / CI-smoke startup order.
func TestDialRetryOutlivesLateServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // free the port; the server will rebind it shortly

	srvReady := make(chan *netserve.Server, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		srv, err := netserve.New(&echoBackend{}, netserve.Config{})
		if err != nil {
			srvReady <- nil
			return
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			srv.Close()
			srvReady <- nil
			return
		}
		go srv.Serve(l)
		srvReady <- srv
	}()

	cl, err := netclient.Dial(addr, netclient.Config{RetryFor: 5 * time.Second})
	if err != nil {
		t.Fatalf("retrying dial failed: %v", err)
	}
	defer cl.Close()
	srv := <-srvReady
	if srv == nil {
		t.Fatal("late server failed to start")
	}
	defer srv.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestClientValidatesBeforeSending(t *testing.T) {
	_, addr := startEcho(t)
	cl, err := netclient.Dial(addr, netclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := cl.Geometry()

	good := func() [][]int {
		rows := make([][]int, g.Tables)
		for t := range rows {
			rows[t] = make([]int, g.Reduction)
		}
		return rows
	}
	if _, err := cl.EmbedInto(nil, good(), 0); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := cl.EmbedInto(nil, good(), g.MaxBatch+1); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, err := cl.EmbedInto(nil, good()[:1], 1); err == nil {
		t.Fatal("short table list accepted")
	}
	bad := good()
	bad[1] = bad[1][:1]
	if _, err := cl.EmbedInto(nil, bad, 1); err == nil {
		t.Fatal("short index list accepted")
	}
	neg := good()
	neg[0][0] = -1
	if _, err := cl.EmbedInto(nil, neg, 1); err == nil {
		t.Fatal("negative index accepted (would alias a huge uint32 on the wire)")
	}
	over := good()
	over[0][0] = g.TableRows
	if _, err := cl.EmbedInto(nil, over, 1); err == nil {
		t.Fatal("out-of-range index accepted")
	}

	if err := cl.Update(nil); err == nil {
		t.Fatal("empty update batch accepted")
	}
	if err := cl.Update([]runtime.TableUpdate{{Table: 99, Rows: []int{1}, Grads: tensor.New(1, g.Dim)}}); err == nil {
		t.Fatal("out-of-range table accepted")
	}
	if err := cl.Update([]runtime.TableUpdate{{Table: 0, Rows: []int{1}, Grads: tensor.New(2, g.Dim)}}); err == nil {
		t.Fatal("gradient shape mismatch accepted")
	}
	// A batch over the per-frame update count cap is refused client-side
	// (its uint16 count field would otherwise truncate into a corrupt
	// frame).
	big := make([]runtime.TableUpdate, wire.MaxUpdatesPerFrame+1)
	one := tensor.New(1, g.Dim)
	for i := range big {
		big[i] = runtime.TableUpdate{Table: 0, Rows: []int{1}, Grads: one}
	}
	if err := cl.Update(big); err == nil || !strings.Contains(err.Error(), "per-frame") {
		t.Fatalf("oversized update count: err = %v", err)
	}
}

// TestUpdateBatchOverFrameLimitRefusedClientSide pins that an update
// batch encoding beyond the frame limit is a clean per-call error instead
// of a server-side protocol violation that would tear down the shared
// connection.
func TestUpdateBatchOverFrameLimitRefusedClientSide(t *testing.T) {
	_, addr := startEcho(t)
	cl, err := netclient.DialFrameLimit(addr, netclient.Config{}, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := cl.Geometry()

	rows := make([]int, g.MaxBatch*g.Reduction)
	ups := []runtime.TableUpdate{
		{Table: 0, Rows: rows, Grads: tensor.New(len(rows), g.Dim)},
		{Table: 1, Rows: rows, Grads: tensor.New(len(rows), g.Dim)},
	}
	if err := cl.Update(ups); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("over-limit update batch: err = %v", err)
	}
	// The connection survived: the next call still works.
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after refused batch: %v", err)
	}
}

func TestUpdateRoundTripAndMetrics(t *testing.T) {
	b, addr := startEcho(t)
	cl, err := netclient.Dial(addr, netclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := cl.Geometry()

	grads := tensor.New(3, g.Dim)
	if err := cl.Update([]runtime.TableUpdate{{Table: 1, Rows: []int{4, 4, 9}, Grads: grads}}); err != nil {
		t.Fatal(err)
	}
	if n := b.applied.Load(); n != 1 {
		t.Fatalf("%d updates applied, want 1", n)
	}
	b.upMu.Lock()
	gotRows := append([]int{}, b.rows...)
	b.upMu.Unlock()
	if len(gotRows) != 3 || gotRows[0] != 4 || gotRows[1] != 4 || gotRows[2] != 9 {
		t.Fatalf("update rows %v, want [4 4 9]", gotRows)
	}

	snap, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Counter("tensordimm_net_updates_total"); !ok || v != 1 {
		t.Fatalf("server snapshot net_updates_total = %d, %v; want 1, true", v, ok)
	}
	if v, ok := snap.Gauge("tensordimm_net_update_seq"); !ok || v != 1 {
		t.Fatalf("server snapshot net_update_seq = %g, %v; want 1, true", v, ok)
	}
}

// TestConcurrentPipelinedClients hammers one client from many goroutines
// over a multi-connection pool and checks every response against the echo
// function — correlation under concurrency.
func TestConcurrentPipelinedClients(t *testing.T) {
	_, addr := startEcho(t)
	cl, err := netclient.Dial(addr, netclient.Config{Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := cl.Geometry()

	const goroutines, iters = 8, 50
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []float32
			rows := make([][]int, g.Tables)
			for t := range rows {
				rows[t] = make([]int, 2*g.Reduction)
			}
			for i := 0; i < iters; i++ {
				base := (w*iters + i) % (g.TableRows - 1)
				for t := range rows {
					for j := range rows[t] {
						rows[t][j] = base
					}
				}
				var err error
				dst, err = cl.EmbedInto(dst, rows, 2)
				if err != nil {
					errCh <- err
					return
				}
				for k := 0; k < g.Dim; k++ {
					if dst[k] != float32(base+k) {
						errCh <- errors.New("response correlated to the wrong request")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestServerGoneFailsPendingAndFutureCalls(t *testing.T) {
	b := &echoBackend{}
	srv, err := netserve.New(b, netserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	cl, err := netclient.Dial(l.Addr().String(), netclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The connection is now gone; calls fail instead of hanging.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := cl.Ping(); err != nil {
			var se *netclient.ServerError
			if errors.As(err, &se) {
				t.Fatalf("ping after server death returned a server error frame: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pings kept succeeding after server Close")
		}
	}
	if _, err := cl.EmbedInto(nil, make([][]int, 2), 1); err == nil {
		t.Fatal("embed on a dead client succeeded")
	}
}

func TestClosedClientFailsFast(t *testing.T) {
	_, addr := startEcho(t)
	cl, err := netclient.Dial(addr, netclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close() // idempotent
	if err := cl.Ping(); err == nil {
		t.Fatal("ping on closed client succeeded")
	}
}

var _ error = (*netclient.ServerError)(nil)

// The geometry the client reports must satisfy the wire validator — it is
// what request validation derives from.
func TestGeometryIsValidated(t *testing.T) {
	_, addr := startEcho(t)
	cl, err := netclient.Dial(addr, netclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var g wire.Geometry = cl.Geometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
