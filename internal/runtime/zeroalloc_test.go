//go:build !race

package runtime

import "testing"

// TestExpandIndicesZeroAlloc pins stripe-index expansion into a reused
// scratch buffer — every index list on the hot serving path goes through
// it — to 0 allocs/op: a 64-sample pairwise-reduction batch, dim 64 on
// 4 DIMMs.
func TestExpandIndicesZeroAlloc(t *testing.T) {
	const reduction, stripes = 2, 64 / (4 * 16)
	rows := make([]int, 64*reduction)
	for i := range rows {
		rows[i] = (i * 37) % 4096
	}
	buf := ExpandIndicesInto(nil, rows, reduction, stripes)
	if len(buf) == 0 {
		t.Fatal("empty expansion")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		buf = ExpandIndicesInto(buf[:0], rows, reduction, stripes)
	})
	if allocs != 0 {
		t.Fatalf("ExpandIndicesInto allocates %.1f times per op into a reused buffer, want 0", allocs)
	}
}
