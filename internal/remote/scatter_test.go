package remote_test

// Scatter-before-gather over real sockets: the router puts every shard's
// sub-request on the wire before it waits for any, from the caller's own
// goroutine, with nothing in between that bounds how many are in flight.
// The replicas are stub netserve.Backends over the shard's golden table,
// so what blocks and when is decided by channels, never by sleeps.

import (
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/embed"
	"tensordimm/internal/netserve"
	"tensordimm/internal/recsys"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
	"tensordimm/internal/wire"
)

// gateBackend is a shard replica without a serving stack: it answers
// gathers straight from the shard's flat golden table, after telling the
// test the call arrived (entered) and waiting for the test's go-ahead
// (gate, nil for none).
type gateBackend struct {
	tbl     *embed.Table
	maxSub  int
	entered func()
	gate    <-chan struct{}
}

func (g *gateBackend) Geometry() wire.Geometry {
	return wire.Geometry{Tables: 1, Reduction: 1, Dim: g.tbl.Dim(), TableRows: g.tbl.Rows(), MaxBatch: g.maxSub}
}

func (g *gateBackend) EmbedInto(dst []float32, perTableRows [][]int, _ int) ([]float32, error) {
	if g.entered != nil {
		g.entered()
	}
	if g.gate != nil {
		<-g.gate
	}
	dst = dst[:0]
	for _, r := range perTableRows[0] {
		dst = append(dst, g.tbl.Row(r)...)
	}
	return dst, nil
}

func (g *gateBackend) ApplyUpdates([]runtime.TableUpdate) error { return nil }

// startGateReplica serves shard s of the test model from a gateBackend on
// a loopback listener and returns its address.
func startGateReplica(t *testing.T, m *recsys.Model, nodes, s int, entered func(), gate <-chan struct{}) string {
	t.Helper()
	shardModel, err := cluster.ExtractShardModel(m, cluster.TableWise, nodes, s)
	if err != nil {
		t.Fatal(err)
	}
	p := cluster.NewPlacement(cluster.TableWise, nodes, m.Cfg.Tables, m.Cfg.TableRows)
	ns, err := netserve.New(&gateBackend{
		tbl:     shardModel.Embedding.Tables[0],
		maxSub:  p.MaxSub(s, testMaxBatch, m.Cfg.Reduction),
		entered: entered,
		gate:    gate,
	}, netserve.Config{Role: wire.RoleReplica})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ns.Serve(l)
	t.Cleanup(func() { ns.Close() })
	return l.Addr().String()
}

// TestInFlightWidth: 32 concurrent reads against two shards whose replicas
// answer only once 32 gathers are inside them at the same time. A router
// that queued sub-requests behind a dispatch pool narrower than 2 x 32
// could never fill either replica and would hang; here every read has both
// of its sub-requests on the wire before it waits, so both gates open.
func TestInFlightWidth(t *testing.T) {
	const nodes, readers = 2, 32
	m := buildModel(t)
	addrs := make([][]string, nodes)
	var openGates []func()
	for s := 0; s < nodes; s++ {
		gate := make(chan struct{})
		var once sync.Once
		open := func() { once.Do(func() { close(gate) }) }
		openGates = append(openGates, open)
		var mu sync.Mutex
		inside := 0
		addrs[s] = []string{startGateReplica(t, m, nodes, s, func() {
			mu.Lock()
			inside++
			full := inside == readers
			mu.Unlock()
			if full {
				open()
			}
		}, gate)}
	}
	rc := newRouter(t, m, cluster.TableWise, addrs, func(cfg *remote.Config) { cfg.ReadOnly = true })
	// Registered last, so it runs first: a failed run must not leave gathers
	// blocked inside the replicas while the router and the servers drain.
	t.Cleanup(func() {
		for _, open := range openGates {
			open()
		}
	})

	rows := make([][]int, m.Cfg.Tables)
	for tb := range rows {
		rows[tb] = make([]int, m.Cfg.Reduction)
		for i := range rows[tb] {
			rows[tb][i] = (7*tb + 3*i) % m.Cfg.TableRows
		}
	}
	want, err := m.Embedding.Forward(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			got, err := rc.EmbedInto(nil, rows, 1)
			if err == nil && !slices.Equal(got, want.Data()) {
				t.Error("read not bit-identical to the golden embedding")
			}
			done <- err
		}()
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < readers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("%d of %d reads completed: the replicas never saw %d gathers at once, so something between the callers and the wire bounds the sub-requests in flight",
				i, readers, readers)
		}
	}
}

// TestLateHedgeSkippedWhenPrimaryAnswered: shard 1's hedge instant passes
// while the read is still waiting on shard 0, whose replicas both hold
// their answer back. By the time the read reaches shard 1 its primary has
// long answered, so the passed hedge instant must not launch a second
// attempt: the only hedge of the run is shard 0's.
func TestLateHedgeSkippedWhenPrimaryAnswered(t *testing.T) {
	const nodes = 2
	m := buildModel(t)
	release := make(chan struct{})
	var once sync.Once
	slow := make(chan struct{}, 2)
	fast := make(chan struct{}, 2)
	addrs := [][]string{
		{
			startGateReplica(t, m, nodes, 0, func() { slow <- struct{}{} }, release),
			startGateReplica(t, m, nodes, 0, func() { slow <- struct{}{} }, release),
		},
		{
			startGateReplica(t, m, nodes, 1, func() { fast <- struct{}{} }, nil),
			startGateReplica(t, m, nodes, 1, func() { fast <- struct{}{} }, nil),
		},
	}
	rc := newTunedRouter(t, m, cluster.TableWise, addrs, func(cfg *remote.Config) {
		cfg.ReadOnly = true
	}, func(tu *remote.Tuning) {
		tu.HedgeAfter = 20 * time.Millisecond
	})
	// Registered last, so it runs first: a failed run must not leave gathers
	// blocked inside the replicas while the router and the servers drain.
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	rows := randRows(rand.New(rand.NewSource(5)), m.Cfg, 2)
	want, err := m.Embedding.Forward(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		out []float32
		err error
	}
	got := make(chan reply, 1)
	go func() {
		out, err := rc.EmbedInto(nil, rows, 2)
		got <- reply{out, err}
	}()

	// Shard 1's primary is served at once; shard 0's primary and — one hedge
	// delay later — its hedge both arrive and block. Both hedge instants
	// were set back to back with the same delay, so once shard 0's hedge is
	// inside its replica, shard 1's instant has passed too: the read is
	// parked on shard 0.
	timeout := time.After(30 * time.Second)
	for _, ch := range []chan struct{}{fast, slow, slow} {
		select {
		case <-ch:
		case <-timeout:
			t.Fatal("shard 0's primary and hedge never both reached their replicas")
		}
	}
	once.Do(func() { close(release) })

	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !slices.Equal(r.out, want.Data()) {
			t.Fatal("read not bit-identical to the golden embedding")
		}
	case <-timeout:
		t.Fatal("read never completed after shard 0 was released")
	}
	if h := rc.Metrics().Hedges; h != 1 {
		t.Fatalf("Hedges = %d, want 1 (shard 0's; shard 1's hedge instant passed while its primary's answer waited)", h)
	}
}
