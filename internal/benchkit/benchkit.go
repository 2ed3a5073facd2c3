// Package benchkit is the shared throughput-benchmark harness of the hot
// serving path. The same benchmark bodies run in two places: the standard
// `go test -bench` entry points (BenchmarkServeThroughput in
// internal/serve, BenchmarkClusterEmbed and BenchmarkClusterEmbedMiss in
// internal/cluster, BenchmarkExpandIndices in internal/runtime) and the cmd/benchjson tool,
// which executes them with testing.Benchmark and emits BENCH_serving.json
// so every PR leaves a comparable performance record.
//
// The harness pins the zero-allocation contract of the serving stack: all
// steady-state benchmark loops drive the *Into APIs with pooled
// per-client buffers, pre-generated request batches and warmed servers, so
// `-benchmem` reporting 0 allocs/op is a regression gate, not an accident.
// Geometry is fixed (4 tables x 64-dim embeddings, pairwise reduction,
// 4 TensorDIMMs per node) to stay comparable across PRs — the recorded
// baseline in cmd/benchjson was measured with exactly this harness.
package benchkit

import (
	"net"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/serve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/workload"
)

// Every benchmark stack carries a live telemetry registry, so the
// allocation gate measures the serving path as it runs in production —
// instrumented. The last completed run's snapshot per benchmark is
// embedded into BENCH_serving.json, leaving exact counters (cache hits,
// batches coalesced, latency histograms) next to each perf record.
var (
	snapMu    sync.Mutex
	snapshots = map[string]*telemetry.Snapshot{}
)

// saveSnapshot records a benchmark's registry snapshot under its name.
// testing.Benchmark re-enters the body while scaling b.N; the final
// (longest) run's snapshot wins.
func saveSnapshot(name string, reg *telemetry.Registry) {
	snap := reg.Snapshot()
	snapMu.Lock()
	snapshots[name] = snap
	snapMu.Unlock()
}

// takeSnapshot hands a saved snapshot to the digest (nil if the
// benchmark has no instrumented stack, e.g. ExpandIndices).
func takeSnapshot(name string) *telemetry.Snapshot {
	snapMu.Lock()
	defer snapMu.Unlock()
	return snapshots[name]
}

// Harness geometry, fixed for cross-PR comparability.
const (
	benchTables    = 4
	benchDim       = 64
	benchReduction = 2
	benchRows      = 4096
	benchDIMMs     = 4
	benchBatch     = 4  // samples per client request
	benchMaxBatch  = 64 // merged-batch cap
	benchWorkers   = 4
	benchClients   = 16 // concurrent client goroutines (SetParallelism)
	benchWarmup    = 256
	benchFeedLen   = 64 // distinct pre-generated request batches
	benchZipfS     = 0.9
	benchNodes     = 2         // cluster shards
	benchCacheB    = 256 << 10 // per-shard hot-row cache bytes
	// The network benchmark funnels many closed-loop clients through one
	// connection: deep per-connection concurrency is what fills the
	// client's group-commit buffer and the server's linger window, making
	// the syscall amortization the coalescing writers buy visible.
	benchNetConns   = 1
	benchNetClients = 128
)

// model builds the fixed benchmark recommender.
func model(b *testing.B) *recsys.Model {
	b.Helper()
	cfg := recsys.Config{
		Name: "bench", Tables: benchTables, Reduction: benchReduction,
		FCLayers: 1, EmbDim: benchDim, TableRows: benchRows,
		Hidden: []int{16},
	}
	m, err := recsys.Build(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// feed pre-generates the request batches every client cycles through, so
// load generation never appears in the measured loop.
func feed(b *testing.B, m *recsys.Model) [][][]int {
	b.Helper()
	gen, err := workload.NewZipfGenerator(m.Cfg.TableRows, benchZipfS, 7)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][][]int, benchFeedLen)
	for i := range batches {
		batches[i] = gen.Batch(m.Cfg.Tables, benchBatch, m.Cfg.Reduction)
	}
	return batches
}

// client is one load-generator goroutine's reusable state: its embedding
// destination buffer and its private cursor into the shared feed.
type client struct {
	dst    []float32
	cursor int
}

// clientPool hands RunParallel goroutines their reusable client state; the
// pool is warmed before the timer starts so steady-state Gets allocate
// nothing.
func clientPool(width int) *sync.Pool {
	p := &sync.Pool{New: func() any {
		return &client{dst: make([]float32, benchBatch*width)}
	}}
	for i := 0; i < 2*benchClients; i++ {
		p.Put(p.New())
	}
	return p
}

// serveStack builds the fixed single-node serving stack (model, node,
// concurrent deployment, micro-batching server); cleanup tears it down.
// Shared by ServeThroughput and NetRoundTrip so the two benchmarks can
// never drift onto different stacks.
func serveStack(b *testing.B) (*recsys.Model, *serve.Server, *telemetry.Registry, func()) {
	m := model(b)
	nd, err := node.New(node.Config{DIMMs: benchDIMMs, PerDIMMBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	dep, err := runtime.DeployConcurrent(m, nd, benchMaxBatch, benchWorkers, 2*benchWorkers)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{MaxBatch: benchMaxBatch, Workers: benchWorkers}, dep)
	if err != nil {
		b.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv.Instrument(reg)
	return m, srv, reg, func() {
		srv.Close()
		nd.Close()
	}
}

// driveEmbed is the shared measured loop: warm the path with benchWarmup
// requests, then run `parallelism` concurrent clients submitting 4-sample
// requests through the given EmbedInto-shaped function with pooled
// destination buffers, reporting req/s.
func driveEmbed(b *testing.B, m *recsys.Model, parallelism int,
	embed func(dst []float32, perTableRows [][]int, batch int) ([]float32, error)) {

	batches := feed(b, m)
	pool := clientPool(m.Cfg.Tables * m.Cfg.EmbDim)
	warm := pool.Get().(*client)
	for i := 0; i < benchWarmup; i++ {
		dst, err := embed(warm.dst, batches[i%len(batches)], benchBatch)
		if err != nil {
			b.Fatal(err)
		}
		warm.dst = dst
	}
	pool.Put(warm)

	b.SetParallelism(parallelism)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		st := pool.Get().(*client)
		defer pool.Put(st)
		for pb.Next() {
			dst, err := embed(st.dst, batches[st.cursor%benchFeedLen], benchBatch)
			if err != nil {
				b.Error(err)
				return
			}
			st.dst = dst
			st.cursor++
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "req/s")
	}
}

// ServeThroughput is the BenchmarkServeThroughput body: concurrent clients
// submitting 4-sample Embed requests through the micro-batching server via
// the zero-allocation EmbedInto path. Reports req/s and p99 latency (us)
// as extra metrics.
func ServeThroughput(b *testing.B) {
	m, srv, reg, cleanup := serveStack(b)
	defer cleanup()
	driveEmbed(b, m, benchClients, srv.EmbedInto)
	b.ReportMetric(srv.Metrics().TotalLatency.P99*1e6, "p99-us")
	saveSnapshot("ServeThroughput", reg)
}

// clusterStack builds the fixed 2-shard cluster with warm hot-row caches
// — the backend both ClusterEmbed and NetRoundTrip front, so the
// in-process and over-the-wire numbers measure the same compute.
func clusterStack(b *testing.B) (*recsys.Model, *cluster.Cluster, *telemetry.Registry, func()) {
	return clusterStackCache(b, benchCacheB)
}

// clusterStackCache is clusterStack with an explicit per-shard cache size;
// zero disables the hot-row caches, so every lookup takes the miss path.
func clusterStackCache(b *testing.B, cacheBytes int64) (*recsys.Model, *cluster.Cluster, *telemetry.Registry, func()) {
	m := model(b)
	cl, err := cluster.New(m, cluster.Config{
		Nodes: benchNodes, DIMMsPerNode: benchDIMMs,
		MaxBatch: benchMaxBatch, CacheBytes: cacheBytes,
	})
	if err != nil {
		b.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cl.Instrument(reg)
	return m, cl, reg, func() { cl.Close() }
}

// ClusterEmbed is the BenchmarkClusterEmbed body: concurrent clients
// submitting 4-sample Embed requests against a 2-shard cluster with warm
// hot-row caches, via the zero-allocation EmbedInto path. Reports req/s as
// an extra metric.
func ClusterEmbed(b *testing.B) {
	m, cl, reg, cleanup := clusterStack(b)
	defer cleanup()
	driveEmbed(b, m, benchClients/2, cl.EmbedInto)
	saveSnapshot("ClusterEmbed", reg)
}

// ClusterEmbedMiss is the BenchmarkClusterEmbedMiss body: ClusterEmbed with
// the hot-row caches disabled, so every read runs the router's miss path —
// Start on both shard servers, then Wait on each — which the warm-cache
// benchmark touches about once per thousand requests. It exists for the
// allocation gate: the scatter/gather seam and the serve.Pending handles
// must stay at 0 allocs/op.
func ClusterEmbedMiss(b *testing.B) {
	m, cl, reg, cleanup := clusterStackCache(b, 0)
	defer cleanup()
	driveEmbed(b, m, benchClients/2, cl.EmbedInto)
	saveSnapshot("ClusterEmbedMiss", reg)
}

// netStack fronts the 2-shard cluster with a netserve.Server on a
// loopback listener and dials a pooled netclient against it — the fixed
// serving plane NetRoundTrip and the saturation sweep share.
func netStack(b *testing.B) (*recsys.Model, *netserve.Server, *netclient.Client, *telemetry.Registry, func()) {
	return netStackDeadline(b, 0)
}

// netStackDeadline is netStack with a client-side deadline budget on
// every request — the steady-state configuration NetRoundTripDeadline
// pins, where budgets are stamped and checked but never trip.
func netStackDeadline(b *testing.B, deadline time.Duration) (*recsys.Model, *netserve.Server, *netclient.Client, *telemetry.Registry, func()) {
	m, cluster, reg, clusterDown := clusterStack(b)
	srv, err := netserve.New(netserve.ClusterBackend(cluster), netserve.Config{Registry: reg})
	if err != nil {
		clusterDown()
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		clusterDown()
		b.Fatal(err)
	}
	go srv.Serve(l)
	cl, err := netclient.Dial(l.Addr().String(), netclient.Config{Conns: benchNetConns, Deadline: deadline})
	if err != nil {
		srv.Close()
		clusterDown()
		b.Fatal(err)
	}
	return m, srv, cl, reg, func() {
		cl.Close()
		srv.Close()
		clusterDown()
	}
}

// NetRoundTrip is the BenchmarkNetRoundTrip body: the ClusterEmbed
// workload driven over the network plane — a netserve.Server fronting the
// 2-shard cluster on a loopback listener, concurrent pipelined netclient
// clients submitting 4-sample EmbedInto requests over a small connection
// pool. The measured loop covers encode, send coalescing, TCP round trip,
// admission, backend execution, response coalescing and decode; with
// pooled tasks/calls and reused buffers on both endpoints it pins the
// network request path allocation-free (amortized) under -benchmem.
// Reports req/s and the server-side p99 (us) as extra metrics.
func NetRoundTrip(b *testing.B) {
	m, srv, cl, reg, cleanup := netStack(b)
	defer cleanup()
	driveEmbed(b, m, benchNetClients, cl.EmbedInto)
	sm := srv.Metrics()
	b.ReportMetric(sm.Latency.P99*1e6, "p99-us")
	b.ReportMetric(float64(sm.BatchedIn)/float64(sm.BatchesIn+1), "in-coalesce")
	b.ReportMetric(float64(sm.BatchedOut)/float64(sm.BatchesOut+1), "out-coalesce")
	saveSnapshot("NetRoundTrip", reg)
}

// NetRoundTripDeadline is the BenchmarkNetRoundTripDeadline body: the
// NetRoundTrip workload with an ample per-request deadline budget (250ms
// against sub-millisecond round trips, so it never trips). It pins the
// cost of carrying deadlines on the steady-state read path: stamping the
// budget client-side, the wire bytes, the server-side expiry checks at
// admission and execution, and the client's per-call deadline timer —
// all of it allocation-free, enforced by the CI allocation gate.
func NetRoundTripDeadline(b *testing.B) {
	m, srv, cl, reg, cleanup := netStackDeadline(b, 250*time.Millisecond)
	defer cleanup()
	driveEmbed(b, m, benchNetClients, cl.EmbedInto)
	sm := srv.Metrics()
	b.ReportMetric(sm.Latency.P99*1e6, "p99-us")
	if sm.Expired != 0 {
		b.Fatalf("%d requests expired under a 250ms budget: the benchmark must never trip deadlines", sm.Expired)
	}
	saveSnapshot("NetRoundTripDeadline", reg)
}

// ExpandIndices is the BenchmarkExpandIndices body: stripe-index expansion
// of a 64-sample pairwise-reduction batch into a reused scratch buffer.
func ExpandIndices(b *testing.B) {
	rows := make([]int, benchMaxBatch*benchReduction)
	for i := range rows {
		rows[i] = (i * 37) % benchRows
	}
	const stripes = benchDim / (benchDIMMs * 16)
	buf := make([]int32, 0, len(rows)*stripes+64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = runtime.ExpandIndicesInto(buf[:0], rows, benchReduction, stripes)
	}
	b.StopTimer()
	if len(buf) == 0 {
		b.Fatal("empty expansion")
	}
}

// Result is one benchmark's digest, as serialized into BENCH_serving.json.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	ReqPerSec   float64 `json:"req_per_sec,omitempty"`
	P99Us       float64 `json:"p99_us,omitempty"`
	// Telemetry is the benchmark stack's registry snapshot after the final
	// run — exact counters and latency histograms behind the averages
	// above. Absent for benchmarks with no serving stack (ExpandIndices).
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// digest converts a testing.BenchmarkResult into a Result.
func digest(name string, r testing.BenchmarkResult) Result {
	out := Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if v, ok := r.Extra["req/s"]; ok {
		out.ReqPerSec = v
	}
	if v, ok := r.Extra["p99-us"]; ok {
		out.P99Us = v
	}
	out.Telemetry = takeSnapshot(name)
	return out
}

// RunSuite executes the hot-path benchmarks with testing.Benchmark
// (auto-scaled iteration counts) and returns their digests in suite order:
// ServeThroughput, ClusterEmbed, ClusterEmbedMiss, ExpandIndices,
// NetRoundTrip, NetRoundTripDeadline.
func RunSuite() []Result {
	return []Result{
		digest("ServeThroughput", testing.Benchmark(ServeThroughput)),
		digest("ClusterEmbed", testing.Benchmark(ClusterEmbed)),
		digest("ClusterEmbedMiss", testing.Benchmark(ClusterEmbedMiss)),
		digest("ExpandIndices", testing.Benchmark(ExpandIndices)),
		digest("NetRoundTrip", testing.Benchmark(NetRoundTrip)),
		digest("NetRoundTripDeadline", testing.Benchmark(NetRoundTripDeadline)),
	}
}
