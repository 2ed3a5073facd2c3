package nmp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tensordimm/internal/isa"
)

// duo runs every instruction through the bulk kernels (Core) and through
// the block-at-a-time reference FSM (refCore), each over its own copy of the
// same memory, and demands that the two are indistinguishable.
type duo struct {
	t       testing.TB
	bulkEnv *fakeEnv
	refEnv  *fakeEnv
	bulk    *Core
	ref     *refCore
}

// newDuo binds a bulk core to env and a reference core to a copy of it.
func newDuo(t testing.TB, env *fakeEnv) *duo {
	t.Helper()
	bulk, err := NewCore(env.tid, env.dim, env)
	if err != nil {
		t.Fatal(err)
	}
	refEnv := env.clone()
	return &duo{t: t, bulkEnv: env, refEnv: refEnv, bulk: bulk, ref: newRefCore(env.tid, env.dim, refEnv)}
}

// exec runs one instruction on both executors and reports whether it
// succeeded. They must agree on success; after success, on every byte of
// rank-local memory, on Stats and on the queue high-water marks. A failed
// instruction must not retire and, on the bulk core, must count nothing; the
// memory it leaves behind is unspecified (and the FSM has counted the blocks
// it moved before the fault), so the reference is re-seeded from the bulk
// core's state and the run can continue.
func (d *duo) exec(in isa.Instruction) bool {
	d.t.Helper()
	before := d.bulk.Stats()
	errBulk, errRef := d.bulk.Execute(in), d.ref.referenceExecute(in)
	if (errBulk == nil) != (errRef == nil) {
		d.t.Fatalf("%v: bulk error %v, reference error %v", in, errBulk, errRef)
	}
	if errBulk != nil {
		if d.bulk.Stats() != before {
			d.t.Fatalf("%v failed (%v) but counted: %+v -> %+v", in, errBulk, before, d.bulk.Stats())
		}
		if d.ref.stats.Instructions != before.Instructions {
			d.t.Fatalf("%v failed but retired on the reference", in)
		}
		copy(d.refEnv.local, d.bulkEnv.local)
		d.ref.stats = before
		d.ref.inA.highWater, d.ref.inB.highWater, d.ref.out.highWater = d.bulk.QueueHighWater()
		return false
	}
	if !bytes.Equal(d.bulkEnv.local, d.refEnv.local) {
		for b := 0; b < len(d.bulkEnv.local); b += isa.BlockBytes {
			if got, want := d.bulkEnv.local[b:b+isa.BlockBytes], d.refEnv.local[b:b+isa.BlockBytes]; !bytes.Equal(got, want) {
				d.t.Fatalf("%v: local block %d differs\n bulk      % x\n reference % x", in, b/isa.BlockBytes, got, want)
			}
		}
	}
	if got := d.bulk.Stats(); got != d.ref.stats {
		d.t.Fatalf("%v: stats bulk %+v, reference %+v", in, got, d.ref.stats)
	}
	a, b, out := d.bulk.QueueHighWater()
	if a != d.ref.inA.highWater || b != d.ref.inB.highWater || out != d.ref.out.highWater {
		d.t.Fatalf("%v: queue high water bulk %d/%d/%d, reference %d/%d/%d", in, a, b, out,
			d.ref.inA.highWater, d.ref.inB.highWater, d.ref.out.highWater)
	}
	return true
}

// fillFloats fills rank-local memory with float32 values of every class the
// ALU can meet except NaN: random bit patterns (huge, tiny, subnormal, both
// signs), with zeros and infinities mixed in. NaNs then only arise inside
// the ALU (Inf-Inf, 0*Inf), where every one carries the machine's default
// payload — two different input payloads would make a result depend on
// which operand the compiler puts first, in the reference as much as in the
// kernels.
func fillFloats(mem []byte, rng *rand.Rand) {
	for o := 0; o+4 <= len(mem); o += 4 {
		bits := rng.Uint32()
		switch rng.Intn(16) {
		case 0:
			bits &= 1 << 31 // +-0
		case 1:
			bits = bits&(1<<31) | 0x7f800000 // +-Inf
		case 2, 3, 4, 5:
			bits = math.Float32bits(float32(rng.Intn(64)-32) / 4) // small, exact sums
		}
		if f := math.Float32frombits(bits); f != f {
			bits &^= 0x007fffff // NaN -> Inf of the same sign
		}
		binary.NativeEndian.PutUint32(mem[o:], bits)
	}
}

// The kernel table's geometry: DIMM 1 of 4, so stripe s of a tensor at
// global base 4b is local block b+s. Local blocks: a 256-row table at 100,
// operand A at 400, operand B at 600, output at 800, gradients at 900.
const (
	ktDim, ktTID                                 = 4, 1
	ktTable, ktInA, ktInB, ktOut, ktGrad, ktRows = 100, 400, 600, 800, 900, 256
	ktIdx                                        = 10 // first index block
	ktGroup                                      = 3  // AVERAGE group size
	// ktLong is the long index list: three GATHER windows and a tail.
	ktLong = 3*gatherWindow + 48
)

// ktInstruction is the well-formed instruction of each opcode at count.
func ktInstruction(op isa.Opcode, rop isa.ReduceOp, count uint32) isa.Instruction {
	var in isa.Instruction
	switch op {
	case isa.OpGather:
		in = isa.Gather(ktDim*ktTable, ktIdx, ktDim*ktOut, count)
	case isa.OpReduce:
		in = isa.Reduce(rop, ktDim*ktInA, ktDim*ktInB, ktDim*ktOut, count)
	case isa.OpAverage:
		in = isa.Average(ktDim*ktInA, ktGroup, ktDim*ktOut, count)
	case isa.OpScatterAdd:
		in = isa.ScatterAdd(ktDim*ktTable, ktIdx, ktDim*ktGrad, count)
	}
	in.ROp = rop
	return in
}

// TestKernelsMatchReference drives every opcode and reduce operator through
// well-formed and broken instructions and checks the bulk kernel against
// the reference FSM on memory, Stats, queue marks and error/no-error.
func TestKernelsMatchReference(t *testing.T) {
	indexed := []isa.Opcode{isa.OpGather, isa.OpScatterAdd}
	streamed := []isa.Opcode{isa.OpReduce, isa.OpAverage}
	// setIdx overwrites index i of the list the instruction walks.
	setIdx := func(env *fakeEnv, i int, v uint32) {
		binary.NativeEndian.PutUint32(env.shared[ktIdx*isa.BlockBytes+i*4:], v)
	}
	// longList makes the list ktLong indices long — three GATHER windows and
	// a tail — continuing the 4-stripe runs the first 48 indices hold.
	longList := func(env *fakeEnv) {
		for i := 48; i < ktLong; i += 4 {
			row := (i/4*37 + 11) % (ktRows / 4)
			for s := 0; s < 4; s++ {
				setIdx(env, i+s, uint32(row*4+s))
			}
		}
		for b := 0; b < ktLong/isa.LanesPerBlock; b++ {
			env.written[ktIdx+b] = true
		}
	}
	if ktOut+ktLong > fakeBlocks || ktGrad+ktLong > fakeBlocks {
		t.Fatalf("a %d-index list does not fit the kernel table's rank", ktLong)
	}
	cases := []struct {
		name    string
		count   uint32
		only    []isa.Opcode // nil: every opcode
		mutate  func(in *isa.Instruction, env *fakeEnv)
		wantErr bool
	}{
		{name: "aligned/count=16", count: 16},
		{name: "aligned/count=48", count: 48},
		{name: "misaligned input base", count: 16, wantErr: true,
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.InputBase++ }},
		{name: "misaligned aux base", count: 16, wantErr: true, only: []isa.Opcode{isa.OpReduce},
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.Aux += 2 }},
		{name: "misaligned output base", count: 16, wantErr: true,
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.OutputBase += 3 }},
		{name: "index at the last local block", count: 16, only: indexed,
			mutate: func(_ *isa.Instruction, env *fakeEnv) { setIdx(env, 5, fakeBlocks-1-ktTable) }},
		{name: "index past capacity", count: 48, only: indexed, wantErr: true,
			mutate: func(_ *isa.Instruction, env *fakeEnv) { setIdx(env, 37, fakeBlocks-ktTable) }},
		{name: "input past capacity", count: 16, only: streamed, wantErr: true,
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.InputBase = ktDim * (fakeBlocks - 15) }},
		{name: "table base past capacity", count: 16, only: indexed, wantErr: true,
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.InputBase = ktDim * (fakeBlocks + 1) }},
		{name: "output ends at capacity", count: 16,
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.OutputBase = ktDim * (fakeBlocks - 16) }},
		{name: "output past capacity", count: 16, wantErr: true,
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.OutputBase = ktDim * (fakeBlocks - 15) }},
		{name: "missing index block", count: 16, only: indexed, wantErr: true,
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.Aux = ktIdx - 1 }},
		{name: "missing last index block", count: 48, only: indexed, wantErr: true,
			mutate: func(_ *isa.Instruction, env *fakeEnv) { env.written[ktIdx+2] = false }},
		{name: "duplicate indices", count: 32, only: indexed,
			mutate: func(_ *isa.Instruction, env *fakeEnv) {
				for i := 0; i < 32; i++ {
					setIdx(env, i, uint32(7+i%2))
				}
			}},
		{name: "output overlaps the rows ahead", count: 16, only: []isa.Opcode{isa.OpGather},
			mutate: func(in *isa.Instruction, env *fakeEnv) {
				for i := 0; i < 16; i++ {
					setIdx(env, i, uint32(i)) // one 16-block run
				}
				in.OutputBase = in.InputBase + ktDim*3
			}},
		{name: "output overlaps the rows behind", count: 16, only: []isa.Opcode{isa.OpGather},
			mutate: func(in *isa.Instruction, env *fakeEnv) {
				for i := 0; i < 16; i++ {
					setIdx(env, i, uint32(i+5))
				}
				in.OutputBase = in.InputBase
			}},
		{name: "in place", count: 16, only: streamed,
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.OutputBase = in.InputBase }},
		// An output overlapping an operand a stripe off: REDUCE's writes
		// past A feed its later reads of A, its writes before B do not.
		{name: "output one stripe past the input", count: 16, only: streamed,
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.OutputBase = in.InputBase + ktDim }},
		{name: "output one stripe before operand B", count: 16, only: []isa.Opcode{isa.OpReduce},
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.OutputBase = in.Aux - ktDim }},
		// Output blocks 24..39 of a 48-block group input: written ahead of
		// the groups that read them.
		{name: "output inside its own group input", count: 16, only: []isa.Opcode{isa.OpAverage},
			mutate: func(in *isa.Instruction, _ *fakeEnv) { in.OutputBase = in.InputBase + ktDim*ktGroup*8 }},
		// Index lists longer than a GATHER window (gatherWindow): the touch
		// of each next window, the runs that cross into it, a fault past it.
		{name: "three windows and a tail", count: ktLong, only: indexed,
			mutate: func(_ *isa.Instruction, env *fakeEnv) { longList(env) }},
		{name: "index past capacity just past the first window", count: ktLong, only: indexed, wantErr: true,
			mutate: func(_ *isa.Instruction, env *fakeEnv) {
				longList(env)
				setIdx(env, gatherWindow+1, fakeBlocks-ktTable)
			}},
		{name: "run straddles a window boundary", count: ktLong, only: indexed,
			mutate: func(_ *isa.Instruction, env *fakeEnv) {
				longList(env)
				for i := -3; i < 6; i++ {
					setIdx(env, gatherWindow+i, uint32(40+i))
				}
			}},
		{name: "output smears over the rows ahead across windows", count: ktLong, only: []isa.Opcode{isa.OpGather},
			mutate: func(in *isa.Instruction, env *fakeEnv) {
				longList(env)
				for i := 0; i < ktLong; i++ {
					setIdx(env, i, uint32(i)) // one run through every window
				}
				in.OutputBase = in.InputBase + ktDim*3
			}},
	}
	for _, op := range []isa.Opcode{isa.OpGather, isa.OpReduce, isa.OpAverage, isa.OpScatterAdd} {
		for _, rop := range []isa.ReduceOp{isa.RAdd, isa.RSub, isa.RMul, isa.RMax} {
			for _, tc := range cases {
				if tc.only != nil && !slices.Contains(tc.only, op) {
					continue
				}
				t.Run(fmt.Sprintf("%v/%v/%s", op, rop, tc.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(op)<<8 | int64(rop)))
					env := newFakeEnv(ktTID, ktDim)
					fillFloats(env.local, rng)
					// 48 indices: runs of four consecutive stripes (what the
					// runtime's expansion emits), rows repeating now and then.
					for i := 0; i < 48; i += 4 {
						row := rng.Intn(ktRows / 4)
						for s := 0; s < 4; s++ {
							setIdx(env, i+s, uint32(row*4+s))
						}
					}
					for b := 0; b < 3; b++ {
						env.written[ktIdx+b] = true
					}
					in := ktInstruction(op, rop, tc.count)
					if tc.mutate != nil {
						tc.mutate(&in, env)
					}
					d := newDuo(t, env)
					if ok := d.exec(in); ok == tc.wantErr {
						t.Fatalf("%v: succeeded = %v, want error = %v", in, ok, tc.wantErr)
					}
					// A core that refused an instruction is still good for
					// the next one, and it counts only that one.
					if next := ktInstruction(op, rop, 16); !d.exec(next) {
						t.Fatalf("%v after %q failed", next, tc.name)
					}
					want := uint64(1)
					if !tc.wantErr {
						want = 2
					}
					if got := d.bulk.Stats().Instructions; got != want {
						t.Fatalf("%d instructions retired, want %d", got, want)
					}
				})
			}
		}
	}
}
