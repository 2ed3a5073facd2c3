//go:build !race

// Allocation pins are compiled out under the race detector, whose
// goroutine and channel instrumentation heap-allocates.

package node

import (
	"testing"

	"tensordimm/internal/isa"
)

// TestNodeExecuteZeroAlloc pins one table's worth of the embedding stage at
// the node — LoadIndices, Execute of GATHER, GATHER, REDUCE, ReadFloatsInto
// per sample — to 0 allocs/op in steady state. The shape is the gather
// workload's per-table one: 4 DIMMs, dim-256 rows (4 stripes), a 64-sample
// pairwise-reduced batch, so 256 stripe indices per GATHER and a Count-256
// REDUCE. A shared slab that reallocates, an Env.Shared that builds a
// temporary per instruction or an I/O cursor that escapes shows up here
// rather than only in serve's end-to-end pin.
func TestNodeExecuteZeroAlloc(t *testing.T) {
	const dimms, dim, batch, rows = 4, 256, 64, 4096
	const emb = dim * 4
	n, err := New(Config{DIMMs: dimms, PerDIMMBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	stripes := emb / int(n.StripeBytes())
	table, err := n.Alloc(rows * emb)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float32, dim)
	for r := 0; r < rows; r++ {
		for i := range row {
			row[i] = float32(r) + float32(i)/dim
		}
		if err := n.WriteFloats(table+uint64(r)*emb, row); err != nil {
			t.Fatal(err)
		}
	}
	var bases [3]uint64 // gather A, gather B, output
	for i := range bases {
		if bases[i], err = n.Alloc(batch * emb); err != nil {
			t.Fatal(err)
		}
	}
	// Both halves' stripe indices, one list: sample g pools rows a(g), b(g).
	half := batch * stripes
	idx := make([]int32, 2*half)
	rowA := func(g int) int { return (g * 37) % rows }
	rowB := func(g int) int { return (g*101 + 7) % rows }
	for g := 0; g < batch; g++ {
		for s := 0; s < stripes; s++ {
			idx[g*stripes+s] = int32(rowA(g)*stripes + s)
			idx[half+g*stripes+s] = int32(rowB(g)*stripes + s)
		}
	}
	idxBase := n.ReserveIndexRegion(uint64(len(idx)) * 4)
	tb, ib := table/isa.BlockBytes, idxBase/isa.BlockBytes
	ga, gb, out := bases[0]/isa.BlockBytes, bases[1]/isa.BlockBytes, bases[2]/isa.BlockBytes
	prog := isa.Program{
		isa.Gather(tb, ib, ga, uint32(half)),
		isa.Gather(tb, ib+uint64(half)/isa.LanesPerBlock, gb, uint32(half)),
		isa.Reduce(isa.RAdd, ga, gb, out, uint32(half)),
	}
	pooled := make([]float32, batch*dim)
	op := func() {
		if err := n.LoadIndices(idxBase, idx); err != nil {
			t.Fatal(err)
		}
		if err := n.Execute(prog); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < batch; g++ {
			if err := n.ReadFloatsInto(bases[2]+uint64(g)*emb, pooled[g*dim:(g+1)*dim]); err != nil {
				t.Fatal(err)
			}
		}
	}
	op()
	for g := 0; g < batch; g++ {
		for i := 0; i < dim; i += 17 {
			want := float32(rowA(g)) + float32(i)/dim + (float32(rowB(g)) + float32(i)/dim)
			if got := pooled[g*dim+i]; got != want {
				t.Fatalf("sample %d lane %d: got %v, want %v", g, i, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Fatalf("LoadIndices + Execute + ReadFloatsInto allocate %.1f times per op, want 0", allocs)
	}
}
