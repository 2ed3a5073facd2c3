package runtime

import (
	"testing"

	"tensordimm/internal/isa"
)

// TestExpandIndicesIntoMatchesExpandIndices pins the reuse contract: an
// expansion appended over a reused buffer is bit-identical to a fresh one
// for every (rows, reduction, stripes) shape the runtime emits.
func TestExpandIndicesIntoMatchesExpandIndices(t *testing.T) {
	cases := []struct {
		rows      []int
		reduction int
		stripes   int
	}{
		{nil, 1, 1},
		{[]int{}, 2, 4},
		{[]int{5, 9, 2, 7}, 2, 1},
		{[]int{3, 4, 8, 9}, 2, 2},
		{[]int{1, 2, 3}, 0, 1},
		{[]int{4, 7}, 5, 3},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 4, 2},
	}
	buf := make([]int32, 0, 256)
	for _, tc := range cases {
		want := ExpandIndicesInto(nil, tc.rows, tc.reduction, tc.stripes)
		buf = ExpandIndicesInto(buf[:0], tc.rows, tc.reduction, tc.stripes)
		if len(buf) != len(want) {
			t.Fatalf("rows %v red %d stripes %d: len %d, want %d", tc.rows, tc.reduction, tc.stripes, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("rows %v red %d stripes %d: idx[%d] = %d, want %d",
					tc.rows, tc.reduction, tc.stripes, i, buf[i], want[i])
			}
		}
	}
}

// TestExpandIndicesIntoAppendsWithPerHalfPadding pins the pairwise-REDUCE
// double-expansion (the old runtime.go append(a, b...) double allocation):
// expanding two halves into one buffer must equal the two standalone
// expansions concatenated, with each half padded independently.
func TestExpandIndicesIntoAppendsWithPerHalfPadding(t *testing.T) {
	a := []int{0, 2, 4, 6, 8}
	b := []int{1, 3, 5, 7, 9}
	const stripes = 3
	buf := ExpandIndicesInto(nil, a, 1, stripes)
	countA := len(buf)
	if countA%isa.LanesPerBlock != 0 {
		t.Fatalf("first half not block padded: %d", countA)
	}
	buf = ExpandIndicesInto(buf, b, 1, stripes)
	wantA := ExpandIndicesInto(nil, a, 1, stripes)
	wantB := ExpandIndicesInto(nil, b, 1, stripes)
	if countA != len(wantA) || len(buf) != len(wantA)+len(wantB) {
		t.Fatalf("lengths: countA %d (want %d), total %d (want %d)",
			countA, len(wantA), len(buf), len(wantA)+len(wantB))
	}
	for i, v := range wantA {
		if buf[i] != v {
			t.Fatalf("half A mismatch at %d", i)
		}
	}
	for i, v := range wantB {
		if buf[countA+i] != v {
			t.Fatalf("half B mismatch at %d", i)
		}
	}
}

// TestRunEmbeddingIntoMatchesRunEmbedding checks a read into a reused
// buffer against one into a fresh tensor and against the golden model,
// reusing the buffer across calls with different batch sizes.
func TestRunEmbeddingIntoMatchesRunEmbedding(t *testing.T) {
	cfg := smallConfig("into", 2, 2, 128, false, isa.RAdd)
	d, oracle := deploy(t, cfg, 8, 8)
	defer d.Release()
	width := cfg.Tables * cfg.EmbDim
	buf := make([]float32, d.Geometry().MaxBatch*width)
	for _, batch := range []int{1, 3, 8} {
		rows := make([][]int, cfg.Tables)
		for t2 := range rows {
			rows[t2] = make([]int, batch*cfg.Reduction)
			for i := range rows[t2] {
				rows[t2][i] = (t2*31 + i*7) % cfg.TableRows
			}
		}
		want, err := embedTensor(d, rows, batch)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := oracle.Embedding.Forward(rows, batch)
		if err != nil {
			t.Fatal(err)
		}
		dst := buf[:batch*width]
		if err := d.RunEmbeddingInto(dst, rows, batch); err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Data() {
			if dst[i] != v {
				t.Fatalf("batch %d: dst[%d] = %v, want %v", batch, i, dst[i], v)
			}
		}
		if !tensorEqualData(golden.Data(), dst) {
			t.Fatalf("batch %d: into-variant diverges from golden", batch)
		}
	}
	// Wrong destination length is rejected, not silently truncated.
	rows := [][]int{{0, 1}, {2, 3}}
	if err := d.RunEmbeddingInto(buf[:5], rows, 1); err == nil {
		t.Fatal("want error for short destination")
	}
}

func tensorEqualData(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
