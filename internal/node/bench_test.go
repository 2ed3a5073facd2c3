package node

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tensordimm/internal/isa"
)

// The gather benchmarks' node: 4 DIMMs and a table of 1 KiB rows (4
// stripes, 256 B per DIMM), row r holding r + i/256 in lane i: 128 MiB of
// them, far past any cache, or 256 KiB, which stays cache-resident. Each
// GATHER names 512 stripes, 128 random rows.
const (
	benchDIMMs      = 4
	benchRowBytes   = 1 << 10
	benchRows       = 128 << 10
	benchCachedRows = 256
	benchCount      = 512
)

// benchNode builds the gather benchmarks' node with a table of rows rows and
// room for progs concurrent programs' outputs, and writes the table.
func benchNode(b *testing.B, rows, progs int) (*Node, uint64) {
	b.Helper()
	n, err := New(Config{DIMMs: benchDIMMs, PerDIMMBytes: uint64(rows)*benchRowBytes/benchDIMMs + uint64(progs)<<20})
	if err != nil {
		b.Fatal(err)
	}
	table, err := n.Alloc(uint64(rows) * benchRowBytes)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float32, benchRowBytes/4)
	for r := 0; r < rows; r++ {
		for i := range row {
			row[i] = float32(r) + float32(i)/float32(len(row))
		}
		if err := n.WriteFloats(table+uint64(r)*benchRowBytes, row); err != nil {
			b.Fatal(err)
		}
	}
	return n, table
}

// gatherProgram is one program's share of a gather benchmark: its own index
// region, output tensor and row stream.
type gatherProgram struct {
	n       *Node
	idx     []int32
	idxBase uint64
	out     uint64
	prog    isa.Program
	rows    int // the table's
	rng     *rand.Rand
}

func newGatherProgram(b *testing.B, n *Node, table uint64, rows int, seed int64) *gatherProgram {
	b.Helper()
	out, err := n.Alloc(benchCount * n.StripeBytes())
	if err != nil {
		b.Fatal(err)
	}
	p := &gatherProgram{n: n, idx: make([]int32, benchCount), idxBase: n.ReserveIndexRegion(benchCount * 4),
		out: out, rows: rows, rng: rand.New(rand.NewSource(seed))}
	p.prog = isa.Program{isa.Gather(table/isa.BlockBytes, p.idxBase/isa.BlockBytes, out/isa.BlockBytes, benchCount)}
	return p
}

// op draws 128 fresh random rows, loads their stripe indices and gathers
// them.
func (p *gatherProgram) op() error {
	stripes := int(benchRowBytes / p.n.StripeBytes())
	for g := 0; g < benchCount; g += stripes {
		r := p.rng.Intn(p.rows)
		for s := 0; s < stripes; s++ {
			p.idx[g+s] = int32(r*stripes + s)
		}
	}
	if err := p.n.LoadIndices(p.idxBase, p.idx); err != nil {
		return err
	}
	return p.n.Execute(p.prog)
}

// check verifies the last row the previous op gathered.
func (p *gatherProgram) check() error {
	stripes := int(benchRowBytes / p.n.StripeBytes())
	row := make([]float32, benchRowBytes/4)
	last := int(p.idx[benchCount-1]) / stripes
	if err := p.n.ReadFloatsInto(p.out+uint64(benchCount-stripes)*p.n.StripeBytes(), row); err != nil {
		return err
	}
	if want := float32(last) + 0.5; row[len(row)/2] != want {
		return fmt.Errorf("gathered row %d: lane %d = %v, want %v", last, len(row)/2, row[len(row)/2], want)
	}
	return nil
}

// BenchmarkGatherRandomRows is the standing probe of GATHER's row-miss
// overlap: per op one 512-stripe GATHER over 128 fresh random rows of the
// 128 MiB table, so almost every row block is a cache miss. The reported
// throughput is the bytes gathered across the node; the index list is drawn
// and loaded inside the timed loop (2 KiB against 128 KiB gathered).
func BenchmarkGatherRandomRows(b *testing.B) { benchGather(b, benchRows) }

// BenchmarkGatherCachedRows is BenchmarkGatherRandomRows' op over a 256 KiB
// table, whose rows stay cache-resident: there GATHER's touch-ahead has no
// miss to overlap and is pure cost, the case of the serving workloads'
// shards, which re-gather a small table.
func BenchmarkGatherCachedRows(b *testing.B) { benchGather(b, benchCachedRows) }

// benchGather times one program's op over a table of rows rows, checking a
// gathered row after the first op and after the last.
func benchGather(b *testing.B, rows int) {
	n, table := benchNode(b, rows, 1)
	defer n.Close()
	p := newGatherProgram(b, n, table, rows, 1)
	if err := p.op(); err != nil {
		b.Fatal(err)
	}
	if err := p.check(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(benchCount * n.StripeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.op(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := p.check(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGatherConcurrentPrograms runs BenchmarkGatherRandomRows' op on
// P goroutines at once, each with its own program (index region, output
// tensor, row stream) over the one shared table, b.N ops in all. Every
// program meets the others on each of the four cores, so the MB/s it
// reports against P shows how far concurrent reads scale on one node.
func BenchmarkGatherConcurrentPrograms(b *testing.B) {
	const maxP = 4
	n, table := benchNode(b, benchRows, maxP)
	defer n.Close()
	progs := make([]*gatherProgram, maxP)
	for i := range progs {
		progs[i] = newGatherProgram(b, n, table, benchRows, int64(i+1))
		if err := progs[i].op(); err != nil {
			b.Fatal(err)
		}
	}
	for _, P := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("P=%d", P), func(b *testing.B) {
			b.SetBytes(int64(benchCount * n.StripeBytes()))
			var next atomic.Int64
			errs := make([]error, P)
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < P; g++ {
				wg.Add(1)
				go func(p *gatherProgram, err *error) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) && *err == nil {
						*err = p.op()
					}
					if *err == nil {
						*err = p.check()
					}
				}(progs[g], &errs[g])
			}
			wg.Wait()
			b.StopTimer()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
