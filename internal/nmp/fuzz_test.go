package nmp

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"tensordimm/internal/isa"
)

// Fuzz geometry: bases crowd the first fuzzNearBlocks of the rank, so they
// overlap each other all the time, or sit in its last blocks and run off the
// end; the rank is long enough for a GATHER past two windows (gatherWindow)
// to fit behind a near base.
const (
	fuzzLocalBlocks  = 800
	fuzzNearBlocks   = 100
	fuzzMaxIdxBlocks = 40 // the longest index list, in blocks: 640 indices
	fuzzSharedBlocks = fuzzMaxIdxBlocks + 12
	fuzzMaxInstrs    = 16
	fuzzInstrBytes   = 8
)

// fuzzInstruction decodes one instruction from eight bytes. Bases land on
// stripe boundaries seven times out of eight; a byte below 200 names one of
// the first fuzzNearBlocks stripes, one above it the rank's last 52 stripes
// or the 4 just past them. Counts stay small enough that most instructions
// fit, except that an index list may run past the replicated region.
func fuzzInstruction(b []byte, dim int) isa.Instruction {
	base := func(v byte, skew byte) uint64 {
		g := uint64(v % fuzzNearBlocks)
		if v >= 2*fuzzNearBlocks {
			g = fuzzLocalBlocks - 52 + uint64(v-2*fuzzNearBlocks)
		}
		g *= uint64(dim)
		if skew%8 == 7 {
			g += 1 + uint64(skew>>3)%uint64(dim)
		}
		return g
	}
	in := isa.Instruction{
		Op:         isa.Opcode(1 + b[0]%4),
		ROp:        isa.ReduceOp(b[0] >> 2 % 4),
		InputBase:  base(b[1], b[5]),
		OutputBase: base(b[3], b[6]),
	}
	switch in.Op {
	case isa.OpGather, isa.OpScatterAdd:
		in.Aux = uint64(b[2] % 16)
		in.Count = isa.LanesPerBlock * uint32(1+b[4]%fuzzMaxIdxBlocks)
	case isa.OpReduce:
		in.Aux = base(b[2], b[7])
		in.Count = 1 + uint32(b[4]%24)
	case isa.OpAverage:
		in.Aux = 1 + uint64(b[2]%5)
		in.Count = 1 + uint32(b[4]%12)
	}
	return in
}

// FuzzNMPBulkVsReference runs random TensorISA programs through the bulk
// kernels and the block-at-a-time reference FSM over identical memory and
// demands bit-identical rank-local bytes, identical Stats and queue marks,
// and agreement on which instructions fail (see duo.exec). The input is
// {nodeDim, tid, memory seed} and then eight bytes per instruction.
func FuzzNMPBulkVsReference(f *testing.F) {
	// One of each opcode over aligned operands; an in-place REDUCE chain; a
	// GATHER whose output smears over its own table; misaligned and
	// out-of-range bases; SCATTER_ADD straight after the GATHER that read
	// the same rows; index lists of 640, two and a half GATHER windows.
	f.Add([]byte{3, 1, 1,
		0, 10, 2, 60, 1, 0, 0, 0, // GATHER
		1, 60, 40, 70, 7, 0, 0, 0, // REDUCE.add
		2, 10, 2, 80, 3, 0, 0, 0, // AVERAGE n=3
		3, 10, 2, 60, 0, 0, 0, 0}) // SCATTER_ADD
	f.Add([]byte{0, 0, 2,
		5, 0, 0, 0, 23, 0, 0, 0, // REDUCE.sub in place
		9, 0, 8, 4, 11, 0, 0, 0, // REDUCE.mul overlapping
		13, 4, 0, 8, 23, 0, 0, 0}) // REDUCE.max
	f.Add([]byte{1, 1, 2,
		0, 4, 0, 5, 0, 0, 0, 0, // GATHER, output one stripe past the table base
		0, 9, 1, 6, 1, 0, 0, 0,
		2, 0, 4, 2, 11, 0, 0, 0}) // AVERAGE over its own output
	f.Add([]byte{3, 2, 4,
		0, 10, 2, 60, 1, 7, 0, 0, // misaligned table base
		1, 60, 40, 70, 7, 0, 0, 15, // misaligned operand B
		0, 255, 2, 60, 1, 0, 0, 0, // table base past the rank
		3, 10, 15, 60, 39, 0, 0, 0, // index list past the region
		1, 250, 40, 70, 23, 0, 0, 0, // operand A runs off the end
		1, 0, 8, 16, 3, 0, 0, 0}) // and the core still works afterwards
	f.Add([]byte{2, 0, 4,
		0, 10, 0, 20, 39, 0, 0, 0, // GATHER of 640 over rows its output later covers
		3, 10, 0, 20, 39, 0, 0, 0, // SCATTER_ADD of the same list
		0, 10, 0, 13, 39, 0, 0, 0}) // GATHER smearing over its own table
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dim := 1 + int(data[0]%4)
		env := newFakeEnvSized(int(data[1])%dim, dim, fuzzLocalBlocks, fuzzSharedBlocks)
		rng := rand.New(rand.NewSource(int64(data[2])))
		fillFloats(env.local, rng)
		// Index lists: runs of consecutive stripes near the table base, one
		// run in 64 anywhere up to just past the rank; one shared block in
		// 64 stays unwritten (a 640-index list is whole half the time).
		for i := 0; i < fuzzSharedBlocks*isa.LanesPerBlock; {
			first, run := rng.Intn(fuzzLocalBlocks/4), 1+rng.Intn(6)
			if rng.Intn(64) == 0 {
				first = rng.Intn(fuzzLocalBlocks + 2)
			}
			for s := 0; s < run && i < fuzzSharedBlocks*isa.LanesPerBlock; s++ {
				binary.NativeEndian.PutUint32(env.shared[i*4:], uint32(first+s))
				i++
			}
		}
		for b := range env.written {
			env.written[b] = rng.Intn(64) != 0
		}
		d := newDuo(t, env)
		prog := data[3:]
		for n := 0; n < fuzzMaxInstrs && len(prog) >= fuzzInstrBytes; n++ {
			d.exec(fuzzInstruction(prog, dim))
			prog = prog[fuzzInstrBytes:]
		}
	})
}
