package nmp

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"tensordimm/internal/isa"
)

// fakeBlocks is the rank-local and the replicated capacity of the fakeEnv
// newFakeEnv builds, in 64-byte blocks.
const fakeBlocks = 2048

// fakeEnv is a slab-backed Env for unit-testing the core: DIMM tid of dim,
// with its own small replicated region.
type fakeEnv struct {
	tid, dim int
	local    []byte
	shared   []byte
	written  []bool // per shared block
}

func newFakeEnv(tid, dim int) *fakeEnv { return newFakeEnvSized(tid, dim, fakeBlocks, fakeBlocks) }

func newFakeEnvSized(tid, dim, localBlocks, sharedBlocks int) *fakeEnv {
	return &fakeEnv{tid: tid, dim: dim,
		local:   make([]byte, localBlocks*isa.BlockBytes),
		shared:  make([]byte, sharedBlocks*isa.BlockBytes),
		written: make([]bool, sharedBlocks)}
}

func (e *fakeEnv) Local() []byte { return e.local }

func (e *fakeEnv) Shared(g uint64, blocks int) ([]byte, error) {
	if limit := uint64(len(e.written)); g > limit || uint64(blocks) > limit-g {
		return nil, fmt.Errorf("shared blocks [%#x, +%d) out of range", g, blocks)
	}
	for b := g; b < g+uint64(blocks); b++ {
		if !e.written[b] {
			return nil, fmt.Errorf("shared block %#x missing", b)
		}
	}
	return e.shared[g*isa.BlockBytes : (g+uint64(blocks))*isa.BlockBytes], nil
}

// at returns the rank-local bytes of global block g, which must stripe to
// this DIMM.
func (e *fakeEnv) at(g uint64) []byte {
	if int(g%uint64(e.dim)) != e.tid {
		panic(fmt.Sprintf("test bug: block %#x not local to tid %d", g, e.tid))
	}
	off := g / uint64(e.dim) * isa.BlockBytes
	return e.local[off : off+isa.BlockBytes]
}

// put stores global block g; get loads it.
func (e *fakeEnv) put(g uint64, b Block) { copy(e.at(g), b[:]) }

func (e *fakeEnv) get(g uint64) Block { return Block(e.at(g)) }

// putShared writes one index block of the replicated region.
func (e *fakeEnv) putShared(g uint64, b Block) {
	copy(e.shared[g*isa.BlockBytes:], b[:])
	e.written[g] = true
}

// clone returns an independent copy, for running the same instruction
// through a second executor.
func (e *fakeEnv) clone() *fakeEnv {
	c := *e
	c.local = append([]byte(nil), e.local...)
	c.shared = append([]byte(nil), e.shared...)
	c.written = append([]bool(nil), e.written...)
	return &c
}

func TestNewCoreValidation(t *testing.T) {
	env := newFakeEnv(0, 4)
	if _, err := NewCore(4, 4, env); err == nil {
		t.Fatal("want error for tid out of range")
	}
	if _, err := NewCore(-1, 4, env); err == nil {
		t.Fatal("want error for negative tid")
	}
	if _, err := NewCore(0, 4, nil); err == nil {
		t.Fatal("want error for nil env")
	}
	if _, err := NewCore(3, 4, env); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	vals := make([]float32, ALULanes)
	for i := range vals {
		vals[i] = float32(i) * 1.5
	}
	got := UnpackFloats(PackFloats(vals))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("lane %d: %v != %v", i, got[i], vals[i])
		}
	}
}

func TestReduceOps(t *testing.T) {
	dim := 2
	for _, rop := range []isa.ReduceOp{isa.RAdd, isa.RSub, isa.RMul, isa.RMax} {
		env := newFakeEnv(0, dim)
		core, _ := NewCore(0, dim, env)
		a := make([]float32, ALULanes)
		b := make([]float32, ALULanes)
		for i := range a {
			a[i] = float32(i + 1)
			b[i] = float32(2*i - 3)
		}
		env.put(0, PackFloats(a))  // inputBase1 block 0 (tid 0 of dim 2)
		env.put(10, PackFloats(b)) // inputBase2 block 10
		in := isa.Reduce(rop, 0, 10, 20, 1)
		if err := core.Execute(in); err != nil {
			t.Fatalf("%v: %v", rop, err)
		}
		got := UnpackFloats(env.get(20))
		for i := range a {
			var want float32
			switch rop {
			case isa.RAdd:
				want = a[i] + b[i]
			case isa.RSub:
				want = a[i] - b[i]
			case isa.RMul:
				want = a[i] * b[i]
			case isa.RMax:
				want = float32(math.Max(float64(a[i]), float64(b[i])))
			}
			if got[i] != want {
				t.Fatalf("%v lane %d: got %v want %v", rop, i, got[i], want)
			}
		}
	}
}

func TestReduceMultiBlockAddressing(t *testing.T) {
	// tid 1 of 4: the core must touch only blocks == 1 (mod 4).
	dim := 4
	env := newFakeEnv(1, dim)
	core, _ := NewCore(1, dim, env)
	for i := uint64(0); i < 3; i++ {
		env.put(0+i*4+1, PackFloats([]float32{float32(i)}))
		env.put(100+i*4+1, PackFloats([]float32{float32(10 * i)}))
	}
	in := isa.Reduce(isa.RAdd, 0, 100, 200, 3)
	if err := core.Execute(in); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		got := UnpackFloats(env.get(200 + i*4 + 1))[0]
		if got != float32(11*i) {
			t.Fatalf("block %d: got %v want %v", i, got, float32(11*i))
		}
	}
	s := core.Stats()
	if s.BlocksRead != 6 || s.BlocksWritten != 3 || s.ALUBlockOps != 3 || s.Instructions != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestAverage(t *testing.T) {
	dim := 1
	env := newFakeEnv(0, dim)
	core, _ := NewCore(0, dim, env)
	// Average 4 blocks into 1, twice (count=2).
	for i := uint64(0); i < 8; i++ {
		env.put(i, PackFloats([]float32{float32(i), float32(i * 2)}))
	}
	in := isa.Average(0, 4, 100, 2)
	if err := core.Execute(in); err != nil {
		t.Fatal(err)
	}
	out0 := UnpackFloats(env.get(100))
	if out0[0] != 1.5 || out0[1] != 3 { // mean(0..3), mean(0,2,4,6)
		t.Fatalf("avg group 0 = %v", out0[:2])
	}
	out1 := UnpackFloats(env.get(101))
	if out1[0] != 5.5 || out1[1] != 11 {
		t.Fatalf("avg group 1 = %v", out1[:2])
	}
}

func TestGather(t *testing.T) {
	dim := 2
	env := newFakeEnv(0, dim)
	core, _ := NewCore(0, dim, env)
	// Table of 32 rows, one stripe each; tid 0 holds block row*2.
	for r := uint64(0); r < 32; r++ {
		env.put(1000+r*2, PackFloats([]float32{float32(r) + 0.5}))
	}
	indices := make([]int32, 16)
	for i := range indices {
		indices[i] = int32((i * 7) % 32)
	}
	env.putShared(50, PackIndices(indices))
	in := isa.Gather(1000, 50, 2000, 16)
	if err := core.Execute(in); err != nil {
		t.Fatal(err)
	}
	for i, idx := range indices {
		got := UnpackFloats(env.get(2000 + uint64(i)*2))[0]
		want := float32(idx) + 0.5
		if got != want {
			t.Fatalf("gathered %d: got %v want %v", i, got, want)
		}
	}
	s := core.Stats()
	if s.SharedReads != 1 || s.BlocksRead != 16 || s.BlocksWritten != 16 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestGatherErrorNamesFirstOffendingIndex: a run of consecutive stripe
// indices that starts inside the rank and ends past it is refused, and the
// error names the first index past the rank, not the run's last one.
func TestGatherErrorNamesFirstOffendingIndex(t *testing.T) {
	const table = fakeBlocks - 8 // 8 local blocks from the table base to the end
	for _, tc := range []struct {
		name  string
		first int32
		want  string
	}{
		{"run straddles the end", 6, "GATHER index 8 beyond"},
		{"run starts past the end", 11, "GATHER index 11 beyond"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv(0, 1)
			core, _ := NewCore(0, 1, env)
			indices := make([]int32, 16) // a 4-index run, then row 0 repeated
			for i := int32(0); i < 4; i++ {
				indices[i] = tc.first + i
			}
			env.putShared(50, PackIndices(indices))
			err := core.Execute(isa.Gather(table, 50, 10, 16))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
			if core.Stats() != (Stats{}) {
				t.Fatalf("refused GATHER counted: %+v", core.Stats())
			}
		})
	}
}

// TestTouchSkipsIndicesPastTheRank: GATHER's touch-ahead — the build's
// touch (prefetches on amd64 without the race detector, touchLoop's plain
// loads elsewhere) and touchLoop itself — skips every index past the rank
// without faulting, also for a table based at the rank's last block and for
// an empty list, and the GATHER over the same list still refuses the first
// index past the rank. CI's race step runs the loop, the plain build the
// assembly.
func TestTouchSkipsIndicesPastTheRank(t *testing.T) {
	const blocks = 32
	for _, table := range []uint64{0, blocks - 1} {
		rows := blocks - table
		t.Run(fmt.Sprintf("table at block %d", table), func(t *testing.T) {
			env := newFakeEnvSized(0, 1, blocks, 1)
			core, _ := NewCore(0, 1, env)
			m := env.Local()
			for b := uint64(0); b < blocks; b++ {
				m[b*isa.BlockBytes] = byte(b + 1)
			}
			var list Block // the rest of the 16 indices are row 0
			for i, r := range []uint32{0, uint32(rows - 1), uint32(rows), 1 << 31, 0xFFFFFFFF} {
				binary.NativeEndian.PutUint32(list[4*i:], r)
			}
			env.putShared(0, list)
			// Rows 0 (twelve times, the padding included) and rows-1 are
			// inside the rank; rows, 1<<31 and 0xFFFFFFFF are not.
			want := byte(12*(table+1) + table + rows)
			for _, idx := range [][]byte{list[:], list[:0]} {
				core.touch(m, idx, table, rows)
				if got := touchLoop(m, idx, table, rows); len(idx) > 0 && got != want {
					t.Fatalf("touchLoop summed %d, want %d: it loaded a block past the rank", got, want)
				}
			}
			err := core.Execute(isa.Gather(table, 0, 0, 16))
			if want := fmt.Sprintf("GATHER index %d beyond local capacity", rows); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want one naming %q", err, want)
			}
		})
	}
}

func TestGatherMissingIndexBlock(t *testing.T) {
	env := newFakeEnv(0, 1)
	core, _ := NewCore(0, 1, env)
	in := isa.Gather(0, 99, 10, 16)
	if err := core.Execute(in); err == nil {
		t.Fatal("want error for missing shared index block")
	}
}

func TestExecuteInvalidInstruction(t *testing.T) {
	env := newFakeEnv(0, 1)
	core, _ := NewCore(0, 1, env)
	if err := core.Execute(isa.Instruction{Op: isa.OpReduce, Count: 0}); err == nil {
		t.Fatal("want validation error")
	}
	if core.Stats().Instructions != 0 {
		t.Fatal("failed instruction must not retire")
	}
}

func TestFaultPropagates(t *testing.T) {
	// Operand B sits one block past the rank: the read fault must surface
	// and the instruction must not retire.
	env := newFakeEnv(0, 1)
	env.put(0, PackFloats([]float32{1}))
	core, _ := NewCore(0, 1, env)
	if err := core.Execute(isa.Reduce(isa.RAdd, 0, fakeBlocks, 2, 1)); err == nil {
		t.Fatal("want out-of-capacity operand to fail")
	}
	if core.Stats() != (Stats{}) {
		t.Fatalf("failed instruction counted: %+v", core.Stats())
	}
}

func TestQueueHighWaterWithinSpec(t *testing.T) {
	// The synchronous datapath must never exceed the 0.5 KB (8-block) SRAM
	// queues of Section 4.2.
	dim := 1
	env := newFakeEnv(0, dim)
	core, _ := NewCore(0, dim, env)
	for i := uint64(0); i < 256; i++ {
		env.put(i, PackFloats([]float32{float32(i)}))
	}
	if err := core.Execute(isa.Average(0, 16, 1000, 16)); err != nil {
		t.Fatal(err)
	}
	a, b, out := core.QueueHighWater()
	if a > QueueBlocks || b > QueueBlocks || out > QueueBlocks {
		t.Fatalf("queue high water %d/%d/%d exceeds %d", a, b, out, QueueBlocks)
	}
	if a == 0 || out == 0 {
		t.Fatal("queues unused — datapath not staging through SRAM")
	}
}

func TestALUBusyTime(t *testing.T) {
	var s Stats
	s.ALUBlockOps = 150e6 // one second of work at 150 MHz
	if got := s.ALUBusySeconds(); got < 0.99 || got > 1.01 {
		t.Fatalf("ALUBusySeconds = %v, want ~1", got)
	}
}

// Property: REDUCE add on the core equals lane-wise float32 addition.
func TestQuickReduceMatchesScalar(t *testing.T) {
	f := func(av, bv [16]float32) bool {
		env := newFakeEnv(0, 1)
		core, _ := NewCore(0, 1, env)
		env.put(0, PackFloats(av[:]))
		env.put(1, PackFloats(bv[:]))
		if err := core.Execute(isa.Reduce(isa.RAdd, 0, 1, 2, 1)); err != nil {
			return false
		}
		got := UnpackFloats(env.get(2))
		for i := range av {
			want := av[i] + bv[i]
			if got[i] != want && !(math.IsNaN(float64(got[i])) && math.IsNaN(float64(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
