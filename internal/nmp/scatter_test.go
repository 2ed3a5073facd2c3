package nmp

import (
	"testing"

	"tensordimm/internal/isa"
)

func TestScatterAdd(t *testing.T) {
	dim := 2
	env := newFakeEnv(0, dim)
	core, _ := NewCore(0, dim, env)
	// Table rows 0..31 at base 1000; row r lane 0 = r.
	for r := uint64(0); r < 32; r++ {
		env.put(1000+r*2, PackFloats([]float32{float32(r)}))
	}
	// Gradients at base 2000: grad i lane 0 = 0.5.
	for i := uint64(0); i < 16; i++ {
		env.put(2000+i*2, PackFloats([]float32{0.5}))
	}
	indices := make([]int32, 16)
	for i := range indices {
		indices[i] = int32(i * 2) // rows 0,2,4,...,30
	}
	env.putShared(50, PackIndices(indices))

	in := isa.ScatterAdd(1000, 50, 2000, 16)
	if err := core.Execute(in); err != nil {
		t.Fatal(err)
	}
	for _, idx := range indices {
		got := UnpackFloats(env.get(1000 + uint64(idx)*2))[0]
		want := float32(idx) + 0.5
		if got != want {
			t.Fatalf("row %d: got %v want %v", idx, got, want)
		}
	}
	// Untouched rows unchanged.
	if got := UnpackFloats(env.get(1000 + 1*2))[0]; got != 1 {
		t.Fatalf("row 1 modified: %v", got)
	}
	s := core.Stats()
	if s.ALUBlockOps != 16 || s.BlocksWritten != 16 || s.BlocksRead != 32 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestScatterAddDuplicateIndicesAccumulate(t *testing.T) {
	env := newFakeEnv(0, 1)
	core, _ := NewCore(0, 1, env)
	env.put(100, PackFloats([]float32{10})) // table row 0 at block 100
	for i := uint64(0); i < 16; i++ {
		env.put(200+i, PackFloats([]float32{1})) // 16 gradients of 1.0
	}
	indices := make([]int32, 16) // all zero: same row 16 times
	env.putShared(0, PackIndices(indices))
	if err := core.Execute(isa.ScatterAdd(100, 0, 200, 16)); err != nil {
		t.Fatal(err)
	}
	if got := UnpackFloats(env.get(100))[0]; got != 26 {
		t.Fatalf("row 0 = %v, want 10 + 16x1 = 26", got)
	}
}

func TestScatterAddErrors(t *testing.T) {
	env := newFakeEnv(0, 1)
	core, _ := NewCore(0, 1, env)
	// Missing index block.
	if err := core.Execute(isa.ScatterAdd(0, 77, 10, 16)); err == nil {
		t.Fatal("want error for missing index block")
	}
	// A table row past the rank: index 0 of a table based at the last block
	// is fine, index 1 is not.
	idx := make([]int32, 16)
	idx[7] = 1
	env.putShared(0, PackIndices(idx))
	if err := core.Execute(isa.ScatterAdd(fakeBlocks-1, 0, 5, 16)); err == nil {
		t.Fatal("want out-of-capacity table row to fail")
	}
	if core.Stats().Instructions != 0 {
		t.Fatal("failed instruction must not retire")
	}
}
