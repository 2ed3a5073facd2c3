package nmp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// aluValues fills v with float32 values of every class the ALU can meet:
// ±0, ±Inf, subnormals, NaNs of both signs, small exact values and random
// bit patterns, so that Inf-Inf, 0*Inf and NaN operands all occur.
func aluValues(v []float32, rng *rand.Rand) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest subnormals
		float32(math.NaN()), math.Float32frombits(0xffc00001),
		math.MaxFloat32, -math.MaxFloat32,
	}
	for i := range v {
		switch k := rng.Intn(8); k {
		case 0, 1:
			v[i] = specials[rng.Intn(len(specials))]
		case 2:
			v[i] = float32(rng.Intn(64)-32) / 4
		default:
			v[i] = math.Float32frombits(rng.Uint32())
		}
	}
}

// aluPairs are the operand pairs the add meets in the sixteen lanes of its
// first block, whatever the random fill: both orders of ±0, Inf-Inf, a NaN on
// either side and on both, subnormal sums and overflow.
var aluPairs = func() (p [ALULanes][2]float32) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero, sub := float32(math.Copysign(0, -1)), float32(math.SmallestNonzeroFloat32)
	p = [ALULanes][2]float32{
		{0, negZero}, {negZero, 0}, {inf, inf}, {inf, -inf}, {-inf, -inf}, {0, inf},
		{nan, 1}, {1, nan}, {nan, -nan}, {sub, sub}, {-sub, sub}, {sub, -sub},
		{math.MaxFloat32, math.MaxFloat32}, {-math.MaxFloat32, math.MaxFloat32}, {negZero, negZero}, {1, -1},
	}
	return p
}()

// sameLanes reports the first lane where got and want differ: in bits, or
// for a NaN, in being one. NaN payloads are not compared, since which
// operand's payload an x86 add keeps depends on the operand order the
// compiler picks for the loop.
func sameLanes(got, want []float32) (int, bool) {
	for i := range want {
		g, w := got[i], want[i]
		if (w != w) != (g != g) || (w == w && math.Float32bits(g) != math.Float32bits(w)) {
			return i, false
		}
	}
	return -1, true
}

// TestALUKernelsBitExact holds the add the core runs (aluAdd: the SSE2
// kernel on amd64 without the race detector) to the portable loop addLoop,
// bit for bit, as REDUCE.add and as SCATTER_ADD's per-row accumulate, over
// every value class, run lengths of 0 to 17 blocks and outputs that alias an
// operand or sit one block ahead of or behind it, where the block-at-a-time
// order decides what a later block reads. A NaN operand must give NaN.
func TestALUKernelsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	check := func(t *testing.T, got, want []float32) {
		t.Helper()
		if i, ok := sameLanes(got, want); !ok {
			t.Fatalf("lane %d (block %d): kernel %v (%#08x), loop %v (%#08x)", i, i/ALULanes,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	for _, n := range []int{0, 1, 2, 3, 17} {
		// Where the output sits against the operands, in blocks of one
		// buffer of 3n+3 blocks.
		places := []struct {
			name    string
			o, a, b int
		}{
			{"disjoint", 2*n + 2, 0, n + 1},
			{"out=A", 0, 0, n + 1},
			{"out=B", n + 1, 0, n + 1},
			{"out=A+1", 1, 0, 2*n + 2},
			{"out=A-1", 0, 1, 2*n + 2},
			{"out=B+1", 1, 2*n + 2, 0},
			{"out=B-1", 0, 2*n + 2, 1},
		}
		for _, p := range places {
			t.Run(fmt.Sprintf("REDUCE.add/%s/n=%d", p.name, n), func(t *testing.T) {
				want := make([]float32, (3*n+3)*ALULanes)
				aluValues(want, rng)
				if n > 0 {
					for l, pr := range aluPairs {
						want[p.a*ALULanes+l], want[p.b*ALULanes+l] = pr[0], pr[1]
					}
				}
				got := append([]float32(nil), want...)
				span := func(buf []float32, at int) []float32 { return buf[at*ALULanes : (at+n)*ALULanes] }
				x := append([]float32(nil), span(want, p.a)...)
				y := append([]float32(nil), span(want, p.b)...)
				aluAdd(span(got, p.o), span(got, p.a), span(got, p.b))
				addLoop(span(want, p.o), span(want, p.a), span(want, p.b))
				check(t, got, want)
				if p.name != "disjoint" {
					return
				}
				o := span(got, p.o)
				for i := range x {
					if (x[i] != x[i] || y[i] != y[i]) && o[i] == o[i] {
						t.Fatalf("lane %d: %v + %v = %v, want NaN", i, x[i], y[i], o[i])
					}
				}
			})
		}
		// SCATTER_ADD's accumulate: one add per row, the row its own output
		// and first operand; a gradient may be the row itself.
		for _, self := range []bool{false, true} {
			t.Run(fmt.Sprintf("SCATTER_ADD/self=%v/n=%d", self, n), func(t *testing.T) {
				want := make([]float32, 2*n*ALULanes)
				aluValues(want, rng)
				got := append([]float32(nil), want...)
				run := func(buf []float32, f func(o, x, y []float32)) {
					for i := 0; i < n; i++ {
						row := lanes(buf, uint64(i))
						g := lanes(buf, uint64(n+i))
						if self {
							g = row
						}
						f(row[:], row[:], g[:])
					}
				}
				run(got, aluAdd)
				run(want, addLoop)
				check(t, got, want)
			})
		}
	}
}

// BenchmarkALU times the add through the entry point the core runs ("core":
// the SSE2 kernel on amd64 without the race detector) and through the
// portable loop, in the two shapes the core runs it: REDUCE.add over a
// 256-block operand, the per-core shape of a large REDUCE, and SCATTER_ADD's
// accumulate, one call per one-block row over 256 rows. ns/block is per
// 64-byte output block, one ALU block operation in Figure 9.
func BenchmarkALU(b *testing.B) {
	const blocks = 256
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, blocks*ALULanes)
	y := make([]float32, blocks*ALULanes)
	o := make([]float32, blocks*ALULanes)
	for i := range x {
		x[i], y[i] = rng.Float32(), rng.Float32()
	}
	for _, c := range []struct {
		name       string
		core, loop func()
	}{
		{"REDUCE.add", func() { aluAdd(o, x, y) }, func() { addLoop(o, x, y) }},
		{"SCATTER_ADD.row", func() {
			for i := uint64(0); i < blocks; i++ {
				row := lanes(o, i)
				aluAdd(row[:], row[:], lanes(y, i)[:])
			}
		}, func() {
			for i := uint64(0); i < blocks; i++ {
				row := lanes(o, i)
				addLoop(row[:], row[:], lanes(y, i)[:])
			}
		}},
	} {
		run := func(kernel string, f func()) {
			b.Run(c.name+"/"+kernel, func(b *testing.B) {
				b.SetBytes(3 * blocks * 64) // read and written per op
				for i := 0; i < b.N; i++ {
					f()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/blocks, "ns/block")
			})
		}
		run("core", c.core)
		run("loop", c.loop)
	}
}
