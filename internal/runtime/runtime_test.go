package runtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
)

// smallConfig returns a test-sized model config. dim must be a multiple of
// nodeDim*16 elements (stripe) for the given node.
func smallConfig(name string, tables, reduction, dim int, mean bool, op isa.ReduceOp) recsys.Config {
	return recsys.Config{
		Name: name, Tables: tables, Reduction: reduction, FCLayers: 2,
		EmbDim: dim, TableRows: 200, Hidden: []int{16, 8},
		Op: op, Mean: mean,
	}
}

func newNode(t *testing.T, dimms int) *node.Node {
	t.Helper()
	n, err := node.New(node.Config{DIMMs: dimms, PerDIMMBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// deploy builds cfg's seed-77 model and deploys it on a fresh node. It
// returns the deployment and golden, a second build of the same model: the
// test's own oracle, never handed to the deployment.
func deploy(t *testing.T, cfg recsys.Config, dimms, maxBatch int) (*Deployment, *recsys.Model) {
	t.Helper()
	m, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(m, newNode(t, dimms), maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	return d, golden
}

// embedTensor runs the embedding layer (RunEmbeddingInto) into a fresh [batch,
// tables*dim] tensor, the shape the golden Model.Embedding.Forward returns.
func embedTensor(d *Deployment, rows [][]int, batch int) (*tensor.Tensor, error) {
	x := tensor.New(batch, d.geom.Width())
	return x, d.RunEmbeddingInto(x.Data(), rows, batch)
}

func TestDeployValidation(t *testing.T) {
	// dim 100 floats = 400 B is not a multiple of an 8-DIMM stripe (512 B).
	cfg := smallConfig("bad", 1, 1, 100, false, isa.RAdd)
	m, err := recsys.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(m, newNode(t, 8), 4); err == nil {
		t.Fatal("want stripe-mismatch error")
	}
	good := smallConfig("good", 1, 1, 128, false, isa.RAdd)
	gm, _ := recsys.Build(good, 1)
	if _, err := Deploy(gm, newNode(t, 8), 0); err == nil {
		t.Fatal("want maxBatch error")
	}
}

func TestExpandIndicesSingleStripe(t *testing.T) {
	idx := ExpandIndicesInto(nil, []int{5, 9, 2, 7}, 2, 1)
	// Groups (5,9) and (2,7), k=1: order unchanged, padded to 16.
	if len(idx) != 16 {
		t.Fatalf("len = %d, want padded 16", len(idx))
	}
	want := []int32{5, 9, 2, 7}
	for i, w := range want {
		if idx[i] != w {
			t.Fatalf("idx[%d] = %d, want %d", i, idx[i], w)
		}
	}
	for _, p := range idx[4:] {
		if p != 7 {
			t.Fatalf("padding = %d, want repeat of last index", p)
		}
	}
}

func TestExpandIndicesStripeTransposed(t *testing.T) {
	// Two groups of two rows, k=2 stripes: within each group the order must
	// be stripe-major: (r0s0, r1s0, r0s1, r1s1).
	idx := ExpandIndicesInto(nil, []int{3, 4, 8, 9}, 2, 2)
	want := []int32{6, 8, 7, 9, 16, 18, 17, 19}
	for i, w := range want {
		if idx[i] != w {
			t.Fatalf("idx[%d] = %d, want %d (full: %v)", i, idx[i], w, idx[:8])
		}
	}
}

func TestExpandIndicesDefensive(t *testing.T) {
	if got := ExpandIndicesInto(nil, []int{1, 2, 3}, 0, 1); len(got)%16 != 0 {
		t.Fatal("reduction 0 must behave as 1 and pad")
	}
	// Tail rows beyond whole groups expand row-major.
	idx := ExpandIndicesInto(nil, []int{1, 2, 3}, 2, 2)
	want := []int32{2, 4, 3, 5, 6, 7}
	for i, w := range want {
		if idx[i] != w {
			t.Fatalf("idx[%d] = %d, want %d", i, idx[i], w)
		}
	}
}

// checkMatchesGolden deploys a model, runs the embedding layer near-memory
// and verifies bit-identity with the golden model.
func checkMatchesGolden(t *testing.T, cfg recsys.Config, dimms, batch int) {
	t.Helper()
	d, golden := deploy(t, cfg, dimms, batch)
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 5)
	rows := gen.Batch(cfg.Tables, batch, cfg.Reduction)

	got, err := embedTensor(d, rows, batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := golden.Embedding.Forward(rows, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("near-memory embedding differs from golden model")
	}
}

func TestMeanPoolingMatchesGolden(t *testing.T) {
	// YouTube-style: mean pooling, one stripe per embedding (8 DIMMs x 16
	// lanes = 128 elements).
	cfg := smallConfig("yt", 2, 10, 128, true, isa.RAdd)
	checkMatchesGolden(t, cfg, 8, 4)
}

func TestMeanPoolingMultiStripe(t *testing.T) {
	// dim 256 on 8 DIMMs = 2 stripes per embedding.
	cfg := smallConfig("yt2", 2, 5, 256, true, isa.RAdd)
	checkMatchesGolden(t, cfg, 8, 3)
}

func TestPairwiseMulMatchesGolden(t *testing.T) {
	// NCF-style GMF: 2-way element-wise product via two GATHERs + REDUCE.
	cfg := smallConfig("ncf", 2, 2, 128, false, isa.RMul)
	checkMatchesGolden(t, cfg, 8, 4)
}

func TestPairwiseMultiStripe(t *testing.T) {
	cfg := smallConfig("ncf2", 1, 2, 512, false, isa.RMul)
	checkMatchesGolden(t, cfg, 4, 5)
}

func TestNoReduction(t *testing.T) {
	cfg := smallConfig("plain", 3, 1, 128, false, isa.RAdd)
	checkMatchesGolden(t, cfg, 8, 6)
}

func TestUnsupportedLowering(t *testing.T) {
	cfg := smallConfig("bad", 1, 5, 128, false, isa.RAdd) // 5-way non-mean
	d, _ := deploy(t, cfg, 8, 2)
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 1)
	rows := gen.Batch(1, 2, 5)
	if _, err := embedTensor(d, rows, 2); err == nil {
		t.Fatal("want lowering error for N-way non-mean reduce")
	}
}

func TestBatchLimits(t *testing.T) {
	cfg := smallConfig("lim", 1, 2, 128, true, isa.RAdd)
	d, _ := deploy(t, cfg, 8, 2)
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 1)
	if _, err := embedTensor(d, gen.Batch(1, 4, 2), 4); err == nil {
		t.Fatal("want batch > maxBatch error")
	}
	if _, err := embedTensor(d, [][]int{{1, 2}, {3, 4}}, 1); err == nil {
		t.Fatal("want table-count error")
	}
}

// TestRunEmbeddingRejectsOutOfRangeRows pins the runtime's read check: the
// tables sit back to back in the pool, so an unchecked row past table 0
// gathers table 1's row 0 and one past the last table reads whatever was
// allocated next. Both read paths (Infer, RunEmbeddingInto) must refuse, naming the table and row,
// before any instruction runs.
func TestRunEmbeddingRejectsOutOfRangeRows(t *testing.T) {
	cfg := smallConfig("oob", 2, 1, 128, false, isa.RAdd)
	d, _ := deploy(t, cfg, 8, 2)
	last := cfg.Tables - 1
	cases := []struct {
		name  string
		rows  [][]int
		batch int
		want  string
	}{
		{"table 0, row TableRows", [][]int{{cfg.TableRows}, {0}}, 1, fmt.Sprintf("table 0: row index %d", cfg.TableRows)},
		{"last table, row TableRows+3", [][]int{{0}, {cfg.TableRows + 3}}, 1, fmt.Sprintf("table %d: row index %d", last, cfg.TableRows+3)},
		{"row -1", [][]int{{-1}, {0}}, 1, "table 0: row index -1"},
		{"batch 0", [][]int{{}, {}}, 0, "batch 0"},
	}
	before := d.Node.Stats()
	for _, tc := range cases {
		if _, err := d.Infer(tc.rows, tc.batch); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Infer, %s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		dst := make([]float32, tc.batch*cfg.Tables*cfg.EmbDim)
		if err := d.RunEmbeddingInto(dst, tc.rows, tc.batch); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunEmbeddingInto, %s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if s := d.Node.Stats(); s != before {
		t.Errorf("rejected reads executed instructions: %+v, before %+v", s, before)
	}
}

func TestInferEndToEnd(t *testing.T) {
	cfg := smallConfig("e2e", 2, 4, 128, true, isa.RAdd)
	d, golden := deploy(t, cfg, 8, 3)
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Zipfian, 9)
	rows := gen.Batch(cfg.Tables, 3, cfg.Reduction)

	got, err := d.Infer(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := golden.Infer(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("near-memory inference differs from pure-software inference")
	}
}

func TestReleaseFreesPool(t *testing.T) {
	nd := newNode(t, 8)
	free0 := nd.FreeBytes()
	cfg := smallConfig("rel", 2, 2, 128, true, isa.RAdd)
	m, _ := recsys.Build(cfg, 3)
	d, err := Deploy(m, nd, 4)
	if err != nil {
		t.Fatal(err)
	}
	if nd.FreeBytes() >= free0 {
		t.Fatal("deployment must consume pool memory")
	}
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	if nd.FreeBytes() != free0 {
		t.Fatalf("leak: %d != %d", nd.FreeBytes(), free0)
	}
}

// TestDeployReleaseCyclesKeepIndexRegionFlat pins the index-region leak
// shut: a long-lived node that deploys, serves and releases models over and
// over must hand the lanes' index regions back, so neither the addresses
// ReserveIndexRegion gives out nor the store behind them grow with the cycle
// count.
func TestDeployReleaseCyclesKeepIndexRegionFlat(t *testing.T) {
	nd := newNode(t, 4)
	defer nd.Close()
	cfg := smallConfig("cycle", 2, 2, 64, false, isa.RAdd)
	m, err := recsys.Build(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
	var idxHigh uint64
	var footprint int
	for cycle := 0; cycle < 200; cycle++ {
		d, err := DeployConcurrent(m, nd, 4, 2, 3)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		// Every lane loads an index list at least once. Which worker takes
		// a table is up to the scheduler, so read until each lane's host
		// index scratch is filled (RunEmbeddingInto's wait orders the
		// workers' writes before this check).
		for reads := 0; ; reads++ {
			used := 0
			for _, ln := range d.lanes {
				if len(ln.idx) > 0 {
					used++
				}
			}
			if used == len(d.lanes) {
				break
			}
			if reads == 10000 {
				t.Fatalf("cycle %d: %d of %d lanes ran a table in %d reads", cycle, used, len(d.lanes), reads)
			}
			if _, err := embedTensor(d, rows, 2); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
		var high uint64
		for _, ln := range d.lanes {
			high = max(high, ln.idxBase)
		}
		if err := d.Release(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if cycle == 0 {
			idxHigh, footprint = high, nd.IndexRegionBytes()
			if footprint == 0 {
				t.Fatal("no index list reached the shared region")
			}
			continue
		}
		if high != idxHigh || nd.IndexRegionBytes() != footprint {
			t.Fatalf("cycle %d: highest lane index base %#x (first cycle %#x), shared region %d B (first cycle %d B)",
				cycle, high, idxHigh, nd.IndexRegionBytes(), footprint)
		}
	}
}

func TestMaxBatchPaddingStaysInBounds(t *testing.T) {
	// Run at exactly maxBatch: GATHER padding must stay within the
	// allocated slack and still match golden.
	cfg := smallConfig("pad", 1, 3, 128, true, isa.RAdd)
	checkMatchesGolden(t, cfg, 8, 7) // 7*3=21 indices -> padded to 32
}

func TestExpandIndicesEdgeCases(t *testing.T) {
	// Empty row list: nothing to expand, and the result is already a whole
	// (zero) number of index blocks.
	if got := ExpandIndicesInto(nil, nil, 4, 2); len(got) != 0 {
		t.Fatalf("empty rows expanded to %d indices, want 0", len(got))
	}
	if got := ExpandIndicesInto(nil, []int{}, 1, 1); len(got) != 0 {
		t.Fatalf("empty rows expanded to %d indices, want 0", len(got))
	}
	// Reduction larger than the row list: no whole group forms, so every
	// row expands row-major, then pads to one block.
	idx := ExpandIndicesInto(nil, []int{4, 7}, 5, 3)
	want := []int32{12, 13, 14, 21, 22, 23}
	if len(idx) != 16 {
		t.Fatalf("len = %d, want one padded block", len(idx))
	}
	for i, w := range want {
		if idx[i] != w {
			t.Fatalf("idx[%d] = %d, want %d", i, idx[i], w)
		}
	}
	for _, p := range idx[len(want):] {
		if p != want[len(want)-1] {
			t.Fatalf("padding = %d, want repeat of last index", p)
		}
	}
}

func TestReleaseDoubleRelease(t *testing.T) {
	nd := newNode(t, 8)
	free0 := nd.FreeBytes()
	cfg := smallConfig("rel2", 2, 2, 128, true, isa.RAdd)
	m, _ := recsys.Build(cfg, 3)
	d, err := Deploy(m, nd, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	if nd.FreeBytes() != free0 {
		t.Fatalf("leak after release: %d != %d", nd.FreeBytes(), free0)
	}
	// Second release is an idempotent no-op: no error, no double free.
	if err := d.Release(); err != nil {
		t.Fatalf("double release: %v", err)
	}
	if nd.FreeBytes() != free0 || nd.AllocCount() != 0 {
		t.Fatalf("double release corrupted the allocator: free %d, allocs %d",
			nd.FreeBytes(), nd.AllocCount())
	}
}

func TestDeployConcurrentValidation(t *testing.T) {
	cfg := smallConfig("val", 1, 1, 128, false, isa.RAdd)
	m, _ := recsys.Build(cfg, 1)
	if _, err := DeployConcurrent(m, newNode(t, 8), 4, 0, 1); err == nil {
		t.Fatal("want slots error")
	}
	if _, err := DeployConcurrent(m, newNode(t, 8), 4, 1, 0); err == nil {
		t.Fatal("want lanes error")
	}
	d, err := DeployConcurrent(m, newNode(t, 8), 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Slots() != 3 || d.Lanes() != 2 || d.Geometry().MaxBatch != 4 {
		t.Fatalf("slots/lanes/maxBatch = %d/%d/%d", d.Slots(), d.Lanes(), d.Geometry().MaxBatch)
	}
}

// TestConcurrentRunEmbedding drives a multi-slot, multi-lane deployment from
// many goroutines and checks every batch against the golden model — the
// isolation guarantee the serving layer builds on. Run with -race.
func TestConcurrentRunEmbedding(t *testing.T) {
	// Facebook-like shape: several mean-pooled tables, two stripes each.
	cfg := smallConfig("conc", 4, 5, 256, true, isa.RAdd)
	m, err := recsys.Build(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	nd := newNode(t, 8)
	d, err := DeployConcurrent(m, nd, 6, 3, 3*cfg.Tables)
	if err != nil {
		t.Fatal(err)
	}
	const clients, iters = 8, 4
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen, _ := workload.NewGenerator(cfg.TableRows, workload.Zipfian, int64(c)*31+1)
			for i := 0; i < iters; i++ {
				batch := 1 + (c+i)%6
				rows := gen.Batch(cfg.Tables, batch, cfg.Reduction)
				got, err := embedTensor(d, rows, batch)
				if err != nil {
					errs[c] = err
					return
				}
				want, err := m.Embedding.Forward(rows, batch)
				if err != nil {
					errs[c] = err
					return
				}
				if !tensor.Equal(got, want) {
					errs[c] = fmt.Errorf("client %d iter %d: concurrent embedding differs from golden", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentPairwiseReduce exercises the two-GATHER + REDUCE path (both
// gather operand buffers of a lane) under concurrency.
func TestConcurrentPairwiseReduce(t *testing.T) {
	cfg := smallConfig("conc2", 2, 2, 128, false, isa.RMul)
	m, err := recsys.Build(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DeployConcurrent(m, newNode(t, 8), 4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, int64(c)+51)
			for i := 0; i < 3; i++ {
				rows := gen.Batch(cfg.Tables, 4, cfg.Reduction)
				got, err := embedTensor(d, rows, 4)
				if err != nil {
					errs[c] = err
					return
				}
				want, _ := m.Embedding.Forward(rows, 4)
				if !tensor.Equal(got, want) {
					errs[c] = fmt.Errorf("client %d: pairwise reduce differs from golden", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestUpdateTablePaddingCapacityBound(t *testing.T) {
	// stripes=6 (dim 768 on 8 DIMMs), maxBatch*reduction=5: scratch holds
	// 30 live stripes + 16 slack. 7 rows = 42 stripes pads to 48 > 46, so
	// the padded zero-staging would overrun the gather buffer — the
	// capacity check must reject it rather than corrupt the neighbor
	// allocation.
	cfg := smallConfig("padcap", 1, 1, 768, false, isa.RAdd)
	d, _ := deploy(t, cfg, 8, 5)
	rows := make([]int, 7)
	grads := tensor.New(len(rows), cfg.EmbDim)
	if err := d.ApplyUpdates([]TableUpdate{{Table: 0, Rows: rows, Grads: grads}}); err == nil {
		t.Fatal("want scratch-capacity error for padded overrun")
	}
	// 6 rows = 36 stripes pads to 48... also over; 5 rows = 30 pads to
	// 32 <= 46 and must succeed.
	rows = rows[:5]
	grads = tensor.New(len(rows), cfg.EmbDim)
	if err := d.ApplyUpdates([]TableUpdate{{Table: 0, Rows: rows, Grads: grads}}); err != nil {
		t.Fatal(err)
	}
}
