package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/recsys"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
)

// nodeRow reads row r of table tb back from the node, which holds the only
// copy of the table the deployment serves.
func nodeRow(t *testing.T, d *Deployment, tb, r int) []float32 {
	t.Helper()
	vals, err := d.Node.ReadFloats(d.tableBase[tb]+uint64(r)*uint64(d.model.Cfg.EmbBytes()), d.model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestUpdateTableMatchesGolden(t *testing.T) {
	cfg := smallConfig("train", 2, 4, 128, true, isa.RAdd)
	d, golden := deploy(t, cfg, 8, 4)

	// Snapshot table 0 before updates.
	before := make([][]float32, cfg.TableRows)
	for r := range before {
		before[r] = append([]float32(nil), golden.Embedding.Tables[0].Row(r)...)
	}

	rng := rand.New(rand.NewSource(31))
	rows := []int{3, 17, 3, 99, 42} // includes a duplicate
	grads := tensor.New(len(rows), cfg.EmbDim)
	for i := range grads.Data() {
		grads.Data()[i] = rng.Float32() - 0.5
	}
	up := TableUpdate{Table: 0, Rows: rows, Grads: grads}
	if err := d.ApplyUpdates([]TableUpdate{up}); err != nil {
		t.Fatal(err)
	}
	AccumulateGolden(golden.Embedding.Tables[0], up)

	// Expected: golden accumulate in order.
	for i, r := range rows {
		for k := 0; k < cfg.EmbDim; k++ {
			before[r][k] += grads.At(i, k)
		}
	}
	// The node's table must now gather the updated rows, as the test's own
	// oracle (updated with AccumulateGolden) does.
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 8)
	batch := 2
	indices := gen.Batch(cfg.Tables, batch, cfg.Reduction)
	indices[0] = []int{3, 17, 99, 42, 3, 5, 6, 7} // touch updated rows
	got, err := embedTensor(d, indices, batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := golden.Embedding.Forward(indices, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("post-update embedding differs from golden")
	}
	// Spot-check an updated row directly against the snapshot arithmetic.
	row3 := nodeRow(t, d, 0, 3)
	for k := 0; k < cfg.EmbDim; k++ {
		if row3[k] != before[3][k] {
			t.Fatalf("row 3 lane %d: %v != %v", k, row3[k], before[3][k])
		}
	}
}

func TestUpdateTableMultiStripe(t *testing.T) {
	cfg := smallConfig("train2", 1, 2, 256, false, isa.RMul) // 2 stripes on 8 DIMMs
	d, golden := deploy(t, cfg, 8, 4)
	rows := []int{1, 2, 3}
	grads := tensor.New(len(rows), cfg.EmbDim)
	grads.Fill(0.25)
	snapshot := golden.Embedding.Tables[0].Row(2)
	if err := d.ApplyUpdates([]TableUpdate{{Table: 0, Rows: rows, Grads: grads}}); err != nil {
		t.Fatal(err)
	}
	vals, err := d.Node.ReadFloats(d.tableBase[0]+2*uint64(cfg.EmbBytes()), cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range vals {
		if v != snapshot[k]+0.25 {
			t.Fatalf("node row 2 lane %d: %v != %v", k, v, snapshot[k]+0.25)
		}
	}
}

// applyGolden accumulates ups into a host-side snapshot table set the same
// way the sequential golden model would: in slice order, duplicates in order.
func applyGolden(snap [][][]float32, ups []TableUpdate) {
	for _, up := range ups {
		for i, r := range up.Rows {
			for k := range snap[up.Table][r] {
				snap[up.Table][r][k] += up.Grads.At(i, k)
			}
		}
	}
}

// snapshotTables copies the tables of cfg's seed-77 model, the model every
// deployment in this file is built from.
func snapshotTables(t *testing.T, cfg recsys.Config) [][][]float32 {
	t.Helper()
	m, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	snap := make([][][]float32, len(m.Embedding.Tables))
	for i, tb := range m.Embedding.Tables {
		snap[i] = make([][]float32, tb.Rows())
		for r := range snap[i] {
			snap[i][r] = append([]float32(nil), tb.Row(r)...)
		}
	}
	return snap
}

func TestApplyUpdatesMultiTable(t *testing.T) {
	cfg := smallConfig("multi", 3, 1, 128, false, isa.RAdd)
	m, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DeployConcurrent(m, newNode(t, 8), 8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotTables(t, cfg)

	rng := rand.New(rand.NewSource(7))
	var ups []TableUpdate
	for _, tb := range []int{0, 2, 1, 0} { // table 0 twice: order matters
		rows := []int{rng.Intn(cfg.TableRows), 5, 5} // dup-heavy
		grads := tensor.New(len(rows), cfg.EmbDim)
		for i := range grads.Data() {
			grads.Data()[i] = rng.Float32() - 0.5
		}
		ups = append(ups, TableUpdate{Table: tb, Rows: rows, Grads: grads})
	}
	if err := d.ApplyUpdates(ups); err != nil {
		t.Fatal(err)
	}
	applyGolden(snap, ups)

	for tb := 0; tb < cfg.Tables; tb++ {
		for r := 0; r < cfg.TableRows; r++ {
			got := nodeRow(t, d, tb, r)
			for k, w := range snap[tb][r] {
				if got[k] != w {
					t.Fatalf("table %d row %d lane %d: %v != %v", tb, r, k, got[k], w)
				}
			}
		}
		// The whole table, read back in one transfer, agrees too.
		vals, err := d.Node.ReadFloats(d.tableBase[tb], cfg.TableRows*cfg.EmbDim)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < cfg.TableRows; r++ {
			for k := 0; k < cfg.EmbDim; k++ {
				if vals[r*cfg.EmbDim+k] != snap[tb][r][k] {
					t.Fatalf("node table %d row %d lane %d: %v != %v",
						tb, r, k, vals[r*cfg.EmbDim+k], snap[tb][r][k])
				}
			}
		}
	}
}

func TestApplyUpdatesConcurrentDisjointTables(t *testing.T) {
	cfg := smallConfig("conc", 4, 1, 128, false, isa.RAdd)
	m, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DeployConcurrent(m, newNode(t, 8), 8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotTables(t, cfg)

	// One updater goroutine per table: per-table order is deterministic, so
	// the final state must match the golden accumulation exactly even though
	// the updaters call concurrently.
	const steps = 5
	perTable := make([][]TableUpdate, cfg.Tables)
	for tb := 0; tb < cfg.Tables; tb++ {
		rng := rand.New(rand.NewSource(int64(100 + tb)))
		for s := 0; s < steps; s++ {
			rows := []int{rng.Intn(cfg.TableRows), rng.Intn(cfg.TableRows)}
			grads := tensor.New(len(rows), cfg.EmbDim)
			for i := range grads.Data() {
				grads.Data()[i] = rng.Float32() - 0.5
			}
			perTable[tb] = append(perTable[tb], TableUpdate{Table: tb, Rows: rows, Grads: grads})
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, cfg.Tables)
	for tb := 0; tb < cfg.Tables; tb++ {
		wg.Add(1)
		go func(tb int) {
			defer wg.Done()
			for _, up := range perTable[tb] {
				if err := d.ApplyUpdates([]TableUpdate{up}); err != nil {
					errs[tb] = err
					return
				}
			}
		}(tb)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for tb := 0; tb < cfg.Tables; tb++ {
		applyGolden(snap, perTable[tb])
	}
	for tb := 0; tb < cfg.Tables; tb++ {
		for r := 0; r < cfg.TableRows; r++ {
			got := nodeRow(t, d, tb, r)
			for k, w := range snap[tb][r] {
				if got[k] != w {
					t.Fatalf("table %d row %d lane %d: %v != %v", tb, r, k, got[k], w)
				}
			}
		}
	}
}

func TestApplyUpdatesValidatesAtomically(t *testing.T) {
	cfg := smallConfig("atomic", 2, 1, 128, false, isa.RAdd)
	d, _ := deploy(t, cfg, 8, 4)
	snap := snapshotTables(t, cfg)
	good := tensor.New(1, cfg.EmbDim)
	good.Fill(1)
	bad := tensor.New(1, cfg.EmbDim)
	ups := []TableUpdate{
		{Table: 0, Rows: []int{3}, Grads: good},
		{Table: 1, Rows: []int{cfg.TableRows}, Grads: bad}, // out of range
	}
	if err := d.ApplyUpdates(ups); err == nil {
		t.Fatal("want row-range error")
	}
	// The valid first entry must NOT have been applied.
	row3 := nodeRow(t, d, 0, 3)
	for k, w := range snap[0][3] {
		if row3[k] != w {
			t.Fatal("partial application after failed validation")
		}
	}
	if err := d.ApplyUpdates([]TableUpdate{{Table: 0, Rows: []int{1}, Grads: nil}}); err == nil {
		t.Fatal("want nil-gradient error")
	}
}

func TestUpdateTableValidation(t *testing.T) {
	cfg := smallConfig("trainv", 1, 2, 128, true, isa.RAdd)
	d, _ := deploy(t, cfg, 8, 2)
	grads := tensor.New(2, cfg.EmbDim)
	if err := d.ApplyUpdates([]TableUpdate{{Table: 5, Rows: []int{1, 2}, Grads: grads}}); err == nil {
		t.Fatal("want table-range error")
	}
	if err := d.ApplyUpdates([]TableUpdate{{Table: 0, Rows: []int{1}, Grads: grads}}); err == nil {
		t.Fatal("want shape error (rows vs grad rows)")
	}
	bad := tensor.New(2, cfg.EmbDim+1)
	if err := d.ApplyUpdates([]TableUpdate{{Table: 0, Rows: []int{1, 2}, Grads: bad}}); err == nil {
		t.Fatal("want dim error")
	}
}

// TestRacingReadSeesWholeStripes pins ARCHITECTURE's read/update rule 2: a
// read that races an update sees each 64-byte block of a row — one DIMM's
// share of a stripe — wholly before or wholly after each scatter-add, never
// half-written. A reduction-1 table makes the outputs raw rows; readers
// gather the updated rows while one writer applies n updates to them, and
// every block read must equal that block of some version 0..n of the
// table, precomputed with AccumulateGolden.
func TestRacingReadSeesWholeStripes(t *testing.T) {
	cfg := smallConfig("race", 1, 1, 256, false, isa.RAdd) // 4 stripes on 4 DIMMs
	m, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DeployConcurrent(m, newNode(t, 4), 8, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{3, 17, 42, 99, 150}
	const n, readers = 40, 3
	rng := rand.New(rand.NewSource(9))
	ups := make([]TableUpdate, n)
	// versions[k][i] is row rows[i] after the first k updates.
	versions := make([][][]float32, n+1)
	snap := func() [][]float32 {
		v := make([][]float32, len(rows))
		for i, r := range rows {
			v[i] = append([]float32(nil), golden.Embedding.Tables[0].Row(r)...)
		}
		return v
	}
	versions[0] = snap()
	for k := range ups {
		grads := tensor.New(len(rows), cfg.EmbDim)
		for i := range grads.Data() {
			grads.Data()[i] = 0.5 + rng.Float32() // never 0: every block changes
		}
		ups[k] = TableUpdate{Table: 0, Rows: rows, Grads: grads}
		AccumulateGolden(golden.Embedding.Tables[0], ups[k])
		versions[k+1] = snap()
	}

	var wg sync.WaitGroup
	var written atomic.Bool
	errs := make([]error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer written.Store(true)
		for _, up := range ups {
			if errs[readers] = d.ApplyUpdates([]TableUpdate{up}); errs[readers] != nil {
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(err *error) {
			defer wg.Done()
			dst := make([]float32, len(rows)*cfg.EmbDim)
			for reads := 0; !written.Load() || reads < 3; reads++ {
				if *err = d.RunEmbeddingInto(dst, [][]int{rows}, len(rows)); *err != nil {
					return
				}
				if *err = wholeBlocks(dst, rows, versions, cfg.EmbDim); *err != nil {
					return
				}
			}
		}(&errs[g])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Quiesced, a read sees the last version whole.
	dst := make([]float32, len(rows)*cfg.EmbDim)
	if err := d.RunEmbeddingInto(dst, [][]int{rows}, len(rows)); err != nil {
		t.Fatal(err)
	}
	if err := wholeBlocks(dst, rows, versions[n:], cfg.EmbDim); err != nil {
		t.Fatalf("after all updates: %v", err)
	}
}

// wholeBlocks checks that every 16-float block of the gathered rows in dst
// equals the same block of one of the versions.
func wholeBlocks(dst []float32, rows []int, versions [][][]float32, dim int) error {
	for i, r := range rows {
		got := dst[i*dim : (i+1)*dim]
	blocks:
		for b := 0; b < dim; b += isa.LanesPerBlock {
			for _, v := range versions {
				if slices.Equal(got[b:b+isa.LanesPerBlock], v[i][b:b+isa.LanesPerBlock]) {
					continue blocks
				}
			}
			return fmt.Errorf("row %d floats [%d, %d): %v matches no version of the block", r, b, b+isa.LanesPerBlock, got[b:b+isa.LanesPerBlock])
		}
	}
	return nil
}
