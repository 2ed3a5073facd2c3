package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/recsys"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
)

// testConfig returns a cluster-test-sized model. Dim 64 = one stripe on a
// 4-DIMM node; TableRows deliberately not divisible by typical node counts
// so row-wise boundaries are exercised.
func testConfig(tables, reduction, dim int, mean bool, op isa.ReduceOp) recsys.Config {
	return recsys.Config{
		Name: "cluster-test", Tables: tables, Reduction: reduction, FCLayers: 2,
		EmbDim: dim, TableRows: 301, Hidden: []int{16, 8},
		Op: op, Mean: mean,
	}
}

func buildCluster(t *testing.T, mc recsys.Config, cfg Config) (*Cluster, *recsys.Model) {
	t.Helper()
	m, err := recsys.Build(mc, 99)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DIMMsPerNode == 0 {
		cfg.DIMMsPerNode = 4
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8
	}
	c, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, m
}

func TestNewValidation(t *testing.T) {
	m, err := recsys.Build(testConfig(2, 2, 64, false, isa.RAdd), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(m, Config{}); err == nil {
		t.Fatal("want error for zero Nodes")
	}
	if _, err := New(m, Config{Nodes: 2, Strategy: Strategy(9)}); err == nil {
		t.Fatal("want error for unknown strategy")
	}
	if _, err := New(m, Config{Nodes: 2, DIMMsPerNode: 5}); err == nil {
		t.Fatal("want error for dim not striping over 5 DIMMs")
	}
	if _, err := New(m, Config{Nodes: 2, DIMMsPerNode: 4, MaxBatch: -1}); err == nil {
		t.Fatal("want error for negative MaxBatch")
	}
}

// TestShardNodeSizing pins the per-DIMM capacity New gives each shard node
// of the benchmark's net_hot_* geometry (4 tables x 4096 rows x dim 64,
// reduction 2, 2 shards, 4 DIMMs, MaxBatch 64, default Workers) to the
// bytes the cluster's own sizing picked before serve.Deploy took it over,
// so the shared sizing cannot move that workload's memory. DeployShard
// must build the same stack a cluster shard runs.
func TestShardNodeSizing(t *testing.T) {
	mc := recsys.Config{
		Name: "net-hot", Tables: 4, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 4096, Hidden: []int{16},
	}
	m, err := recsys.Build(mc, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: 2, DIMMsPerNode: 4, MaxBatch: 64, CacheBytes: 256 << 10}
	c, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const perDIMM = 946176
	for _, sh := range c.shard {
		nd := sh.srv.Node()
		if got := nd.CapacityBytes() / uint64(nd.NodeDim()); got != perDIMM {
			t.Errorf("shard %d: %d bytes per DIMM, want %d", sh.id, got, perDIMM)
		}
	}

	srv, err := DeployShard(m, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got, want := srv.Node().CapacityBytes(), c.shard[1].srv.Node().CapacityBytes(); got != want {
		t.Errorf("DeployShard node holds %d bytes, the cluster's shard %d", got, want)
	}
	_, _, _, gotRows, gotMax := srv.Geometry()
	_, _, _, wantRows, wantMax := c.shard[1].srv.Geometry()
	if gotRows != wantRows || gotMax != wantMax {
		t.Errorf("DeployShard serves %d rows, batch cap %d; the cluster's shard %d, %d", gotRows, gotMax, wantRows, wantMax)
	}

	if _, err := DeployShard(m, cfg, 2); err == nil {
		t.Error("want error for a shard id past Nodes")
	}
	if _, err := DeployShard(m, Config{Nodes: 8, DIMMsPerNode: 4}, 5); err == nil {
		t.Error("want error for a shard the table-wise placement leaves empty")
	}
}

// TestPlacementRowWiseBoundaries pins the row-wise hash mapping at shard
// boundaries: rows 0..N-1 land on shards 0..N-1, row N wraps back to shard
// 0 at flat row 1, and the last row of a table that does not divide evenly
// lands where the mapping says it must.
func TestPlacementRowWiseBoundaries(t *testing.T) {
	const nodes, tables, rows = 3, 2, 301 // 301 = 3*100 + 1
	p := NewPlacement(RowWise, nodes, tables, rows)
	// Shard 0 owns rows 0,3,...,300 -> 101 rows per table; shards 1 and 2
	// own 100 each.
	if got := p.localRows[0]; got != 2*101 {
		t.Fatalf("shard 0 flat rows = %d, want %d", got, 2*101)
	}
	if got := p.localRows[1]; got != 2*100 {
		t.Fatalf("shard 1 flat rows = %d, want %d", got, 2*100)
	}
	cases := []struct{ table, row, wantShard, wantFlat int }{
		{0, 0, 0, 0},
		{0, 1, 1, 0},
		{0, 2, 2, 0},
		{0, 3, 0, 1},     // wraps to shard 0, second flat row
		{0, 300, 0, 100}, // last row of table 0 (300 = 3*100)
		{1, 0, 0, 101},   // table 1 starts after table 0's 101 rows on shard 0
		{1, 300, 0, 201}, // last row of table 1
		{1, 299, 2, 100 + 99},
	}
	for _, c := range cases {
		s, f := p.Locate(c.table, c.row)
		if s != c.wantShard || f != c.wantFlat {
			t.Errorf("locate(%d, %d) = (%d, %d), want (%d, %d)",
				c.table, c.row, s, f, c.wantShard, c.wantFlat)
		}
	}
}

// TestPlacementTableWise pins the round-robin table assignment, including
// more nodes than tables (empty shards).
func TestPlacementTableWise(t *testing.T) {
	p := NewPlacement(TableWise, 4, 3, 10)
	wantRows := []int{10, 10, 10, 0}
	for s, want := range wantRows {
		if p.localRows[s] != want {
			t.Fatalf("shard %d rows = %d, want %d", s, p.localRows[s], want)
		}
	}
	if s, f := p.Locate(2, 7); s != 2 || f != 7 {
		t.Fatalf("locate(2, 7) = (%d, %d), want (2, 7)", s, f)
	}
	if p.TablesOn(3) != 0 {
		t.Fatalf("empty shard reports %d tables", p.TablesOn(3))
	}
}

// matchGolden asserts the cluster's Embed output is bit-identical to the
// golden single-node embedding for several batches.
func matchGolden(t *testing.T, c *Cluster, m *recsys.Model, seed int64, iters int) {
	t.Helper()
	gen, err := workload.NewGenerator(m.Cfg.TableRows, workload.Uniform, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		batch := 1 + i%c.cfg.MaxBatch
		rows := gen.Batch(m.Cfg.Tables, batch, m.Cfg.Reduction)
		got, err := c.Embed(rows, batch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.GoldenEmbedding(rows, batch)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("iter %d: cluster embedding differs from golden", i)
		}
	}
}

func TestTableWiseMatchesGolden(t *testing.T) {
	// Mean pooling (YouTube-class shape) across 2 nodes, 3 tables: one
	// shard holds two tables, so flat-table offsets are exercised.
	c, m := buildCluster(t, testConfig(3, 5, 64, true, isa.RAdd),
		Config{Nodes: 2, Strategy: TableWise})
	matchGolden(t, c, m, 7, 6)
}

func TestTableWiseNonMeanReduce(t *testing.T) {
	// Element-wise product pooling (NCF's GMF path): router-side merge must
	// reproduce the golden operator chain exactly.
	c, m := buildCluster(t, testConfig(2, 2, 64, false, isa.RMul),
		Config{Nodes: 2, Strategy: TableWise})
	matchGolden(t, c, m, 8, 4)
}

func TestRowWiseMatchesGolden(t *testing.T) {
	// 3 nodes over 301-row tables: uneven shard slices, pooling groups
	// spanning shards.
	c, m := buildCluster(t, testConfig(2, 5, 64, true, isa.RAdd),
		Config{Nodes: 3, Strategy: RowWise})
	matchGolden(t, c, m, 9, 6)
}

func TestRowWiseWithCacheMatchesGolden(t *testing.T) {
	c, m := buildCluster(t, testConfig(2, 4, 64, true, isa.RAdd),
		Config{Nodes: 3, Strategy: RowWise, CacheBytes: 16 << 10})
	matchGolden(t, c, m, 10, 8)
	met := c.Metrics()
	if met.CacheHits+met.CacheMisses != met.Lookups {
		t.Fatalf("cache accounting: %d hits + %d misses != %d lookups",
			met.CacheHits, met.CacheMisses, met.Lookups)
	}
}

// TestEmptySubBatches covers the two shapes of "nothing to do" for a
// shard: shards that own no rows at all (more nodes than tables,
// table-wise), and non-empty shards a particular request happens not to
// touch (row-wise request of even rows only). Both must see zero
// sub-requests while the merge stays golden.
func TestEmptySubBatches(t *testing.T) {
	mc := testConfig(2, 2, 64, false, isa.RAdd)
	c, m := buildCluster(t, mc, Config{Nodes: 4, Strategy: TableWise})
	gen, _ := workload.NewGenerator(mc.TableRows, workload.Uniform, 3)
	for i := 0; i < 3; i++ {
		rows := gen.Batch(mc.Tables, 2, mc.Reduction)
		got, err := c.Embed(rows, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := m.Embedding.Forward(rows, 2)
		if !tensor.Equal(got, want) {
			t.Fatal("embedding differs from golden")
		}
	}
	met := c.Metrics()
	if met.Shards[2].SubRequests != 0 || met.Shards[3].SubRequests != 0 {
		t.Fatalf("empty shards saw sub-requests: %+v", met.Shards[2:])
	}
	if met.Shards[0].SubRequests == 0 || met.Shards[1].SubRequests == 0 {
		t.Fatalf("table-owning shards saw no traffic: %d, %d",
			met.Shards[0].SubRequests, met.Shards[1].SubRequests)
	}
	if met.TransferBytes == 0 {
		t.Fatal("no fabric traffic modeled")
	}

	// Row-wise: a request built only of even rows routes nothing to the
	// odd shard of a 2-node cluster.
	c2, m2 := buildCluster(t, mc, Config{Nodes: 2, Strategy: RowWise})
	rows := make([][]int, mc.Tables)
	for t2 := range rows {
		for i := 0; i < 2*mc.Reduction; i++ {
			rows[t2] = append(rows[t2], (i*2+t2*4)%mc.TableRows&^1)
		}
	}
	got, err := c2.Embed(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m2.Embedding.Forward(rows, 2)
	if !tensor.Equal(got, want) {
		t.Fatal("even-rows embedding differs from golden")
	}
	met2 := c2.Metrics()
	if met2.Shards[1].SubRequests != 0 {
		t.Fatalf("odd shard saw %d sub-requests for an even-rows request", met2.Shards[1].SubRequests)
	}
	if met2.Shards[0].SubRequests != 1 {
		t.Fatalf("even shard saw %d sub-requests, want 1", met2.Shards[0].SubRequests)
	}
}

// TestCacheHitAccounting replays one request twice: the second pass must be
// served entirely from the caches, stay bit-identical, and the counters
// must balance.
func TestCacheHitAccounting(t *testing.T) {
	mc := testConfig(2, 3, 64, true, isa.RAdd)
	c, m := buildCluster(t, mc, Config{Nodes: 2, Strategy: RowWise, CacheBytes: 1 << 20})
	gen, _ := workload.NewGenerator(mc.TableRows, workload.Uniform, 5)
	rows := gen.Batch(mc.Tables, 2, mc.Reduction)
	want, _ := m.Embedding.Forward(rows, 2)

	first, err := c.Embed(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Metrics()
	second, err := c.Embed(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Metrics()

	if !tensor.Equal(first, want) || !tensor.Equal(second, want) {
		t.Fatal("cached replay differs from golden")
	}
	lookups := uint64(mc.Tables * 2 * mc.Reduction)
	if hits := after.CacheHits - before.CacheHits; hits != lookups {
		t.Fatalf("second pass: %d hits, want all %d lookups cached", hits, lookups)
	}
	if gathered := afterRows(after) - afterRows(before); gathered != 0 {
		t.Fatalf("second pass gathered %d rows, want 0", gathered)
	}
	if after.CacheHits+after.CacheMisses != after.Lookups {
		t.Fatalf("accounting: %d + %d != %d", after.CacheHits, after.CacheMisses, after.Lookups)
	}
}

func afterRows(m Metrics) uint64 {
	var total uint64
	for _, s := range m.Shards {
		total += s.RowsGathered
	}
	return total
}

// TestConcurrentInferAccounting hammers one cached cluster from many
// goroutines (run under -race): every result must match the golden model
// and the global hit/miss accounting must balance exactly despite racing
// probes and insertions.
func TestConcurrentInferAccounting(t *testing.T) {
	mc := testConfig(2, 3, 64, true, isa.RAdd)
	c, m := buildCluster(t, mc,
		Config{Nodes: 3, Strategy: RowWise, CacheBytes: 32 << 10, Workers: 2})
	const clients, iters = 6, 5
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			gen, err := workload.NewZipfGenerator(mc.TableRows, 0.9, int64(cl))
			if err != nil {
				errs[cl] = err
				return
			}
			for i := 0; i < iters; i++ {
				batch := 1 + (cl+i)%4
				rows := gen.Batch(mc.Tables, batch, mc.Reduction)
				got, err := c.Infer(rows, batch)
				if err != nil {
					errs[cl] = err
					return
				}
				want, err := m.Infer(rows, batch)
				if err != nil {
					errs[cl] = err
					return
				}
				if !tensor.Equal(got, want) {
					errs[cl] = fmt.Errorf("client %d iter %d: cluster inference differs from golden", cl, i)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	met := c.Metrics()
	if met.CacheHits+met.CacheMisses != met.Lookups {
		t.Fatalf("accounting under concurrency: %d hits + %d misses != %d lookups",
			met.CacheHits, met.CacheMisses, met.Lookups)
	}
	if met.Requests != clients*iters {
		t.Fatalf("completed %d requests, want %d", met.Requests, clients*iters)
	}
	if met.Failures != 0 {
		t.Fatalf("%d failures", met.Failures)
	}
}

// TestZipfHitRate is the acceptance experiment: under a Zipf(0.9) trace, a
// cache holding ~10% of the hot rows must exceed a 50% hit rate once warm.
func TestZipfHitRate(t *testing.T) {
	mc := testConfig(2, 4, 64, true, isa.RAdd)
	mc.TableRows = 2000
	// 64 KiB per shard = 256 rows of 256 B; two shards ≈ 13% of 2x2000 rows.
	c, _ := buildCluster(t, mc,
		Config{Nodes: 2, Strategy: RowWise, CacheBytes: 64 << 10, MaxBatch: 8})
	gen, err := workload.NewZipfGenerator(mc.TableRows, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			rows := gen.Batch(mc.Tables, 4, mc.Reduction)
			if _, err := c.Embed(rows, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(60) // warm the caches
	warm := c.Metrics()
	run(120)
	final := c.Metrics()
	hits := final.CacheHits - warm.CacheHits
	misses := final.CacheMisses - warm.CacheMisses
	rate := float64(hits) / float64(hits+misses)
	if rate <= 0.5 {
		t.Fatalf("warm Zipf(0.9) hit rate %.1f%%, want > 50%%", 100*rate)
	}
	for _, s := range final.Shards {
		if s.CacheHits == 0 {
			t.Fatalf("shard %d never hit its cache", s.Shard)
		}
	}
}

// TestCloseSemantics: close is idempotent, rejects later requests, and
// releases every shard's pool memory.
func TestCloseSemantics(t *testing.T) {
	mc := testConfig(2, 2, 64, false, isa.RAdd)
	c, _ := buildCluster(t, mc, Config{Nodes: 2})
	gen, _ := workload.NewGenerator(mc.TableRows, workload.Uniform, 1)
	rows := gen.Batch(mc.Tables, 1, mc.Reduction)
	if _, err := c.Infer(rows, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := c.Infer(rows, 1); err == nil {
		t.Fatal("want error after close")
	}
	for _, sh := range c.shard {
		if sh.srv != nil && sh.srv.Node().AllocCount() != 0 {
			t.Fatalf("shard %d: %d live allocations after close", sh.id, sh.srv.Node().AllocCount())
		}
	}
}

// TestRequestValidation covers the router's argument checking.
func TestRequestValidation(t *testing.T) {
	mc := testConfig(2, 2, 64, false, isa.RAdd)
	c, _ := buildCluster(t, mc, Config{Nodes: 2, MaxBatch: 4})
	gen, _ := workload.NewGenerator(mc.TableRows, workload.Uniform, 1)
	good := gen.Batch(mc.Tables, 1, mc.Reduction)
	if _, err := c.Embed(good, 0); err == nil {
		t.Fatal("want batch range error")
	}
	if _, err := c.Embed(good, 5); err == nil {
		t.Fatal("want batch > MaxBatch error")
	}
	if _, err := c.Embed(good[:1], 1); err == nil {
		t.Fatal("want table count error")
	}
	bad := gen.Batch(mc.Tables, 1, mc.Reduction)
	bad[1][0] = mc.TableRows
	if _, err := c.Embed(bad, 1); err == nil {
		t.Fatal("want row range error")
	}
	short := gen.Batch(mc.Tables, 1, mc.Reduction)
	short[0] = short[0][:1]
	if _, err := c.Embed(short, 1); err == nil {
		t.Fatal("want row count error")
	}
}

// TestMetricsString smoke-checks the report rendering.
func TestMetricsString(t *testing.T) {
	mc := testConfig(2, 2, 64, false, isa.RAdd)
	c, _ := buildCluster(t, mc, Config{Nodes: 2, CacheBytes: 8 << 10})
	gen, _ := workload.NewGenerator(mc.TableRows, workload.Uniform, 1)
	if _, err := c.Infer(gen.Batch(mc.Tables, 2, mc.Reduction), 2); err != nil {
		t.Fatal(err)
	}
	s := c.Metrics().String()
	for _, want := range []string{"cluster: 2 shards", "hot-row cache", "per shard"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
	if c.Nodes() != 2 || c.Config().Workers == 0 {
		t.Fatal("accessors")
	}
}
