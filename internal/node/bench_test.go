package node

import (
	"math/rand"
	"testing"

	"tensordimm/internal/isa"
)

// BenchmarkGatherRandomRows is the standing probe of GATHER's row-miss
// overlap: 4 DIMMs, a 128 MiB table of 1 KiB rows (4 stripes, 256 B per
// DIMM), and per op one 512-stripe GATHER over 128 fresh random rows, so
// almost every row block is a cache miss. The reported throughput is the
// bytes gathered across the node; the index list is drawn and loaded inside
// the timed loop (2 KiB against 128 KiB gathered).
func BenchmarkGatherRandomRows(b *testing.B) {
	const dimms, rowBytes, rows, count = 4, 1 << 10, 128 << 10, 512
	n, err := New(Config{DIMMs: dimms, PerDIMMBytes: rows*rowBytes/dimms + 1<<20})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	table, err := n.Alloc(rows * rowBytes)
	if err != nil {
		b.Fatal(err)
	}
	out, err := n.Alloc(count * n.StripeBytes())
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float32, rowBytes/4)
	for r := 0; r < rows; r++ {
		for i := range row {
			row[i] = float32(r) + float32(i)/float32(len(row))
		}
		if err := n.WriteFloats(table+uint64(r)*rowBytes, row); err != nil {
			b.Fatal(err)
		}
	}
	stripes := int(rowBytes / n.StripeBytes())
	idx := make([]int32, count)
	idxBase := n.ReserveIndexRegion(count * 4)
	prog := isa.Program{isa.Gather(table/isa.BlockBytes, idxBase/isa.BlockBytes, out/isa.BlockBytes, count)}
	rng := rand.New(rand.NewSource(1))
	op := func() {
		for g := 0; g < count; g += stripes {
			r := rng.Intn(rows)
			for s := 0; s < stripes; s++ {
				idx[g+s] = int32(r*stripes + s)
			}
		}
		if err := n.LoadIndices(idxBase, idx); err != nil {
			b.Fatal(err)
		}
		if err := n.Execute(prog); err != nil {
			b.Fatal(err)
		}
	}
	op()
	last := int(idx[count-1]) / stripes
	if err := n.ReadFloatsInto(out+uint64(count-stripes)*n.StripeBytes(), row); err != nil {
		b.Fatal(err)
	}
	if want := float32(last) + 0.5; row[len(row)/2] != want {
		b.Fatalf("gathered row %d: lane %d = %v, want %v", last, len(row)/2, row[len(row)/2], want)
	}
	b.SetBytes(int64(count * n.StripeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
