package dimm

import (
	"encoding/binary"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"tensordimm/internal/isa"
	"tensordimm/internal/nmp"
)

func TestNewValidation(t *testing.T) {
	sh := NewSharedRegion()
	if _, err := New(0, 4, 100, sh); err == nil {
		t.Fatal("want error: localBytes not multiple of 64")
	}
	if _, err := New(0, 4, 0, sh); err == nil {
		t.Fatal("want error: zero localBytes")
	}
	if _, err := New(0, 4, 4096, nil); err == nil {
		t.Fatal("want error: nil shared region")
	}
	if _, err := New(9, 4, 4096, sh); err == nil {
		t.Fatal("want error: tid out of range (via nmp core)")
	}
	d, err := New(2, 4, 4096, sh)
	if err != nil {
		t.Fatal(err)
	}
	if d.TID() != 2 || d.LocalBytes() != 4096 || d.Core() == nil {
		t.Fatalf("accessors: tid=%d bytes=%d", d.TID(), d.LocalBytes())
	}
}

// put stores one float in lane 0 of the block at a rank-local byte offset.
func put(t *testing.T, d *TensorDIMM, localOffset uint64, v float32) {
	t.Helper()
	if err := d.WriteBlock(localOffset, nmp.PackFloats([]float32{v})); err != nil {
		t.Fatal(err)
	}
}

// lane0 loads lane 0 of the block at a rank-local byte offset.
func lane0(t *testing.T, d *TensorDIMM, localOffset uint64) float32 {
	t.Helper()
	b, err := d.ReadBlock(localOffset)
	if err != nil {
		t.Fatal(err)
	}
	return nmp.UnpackFloats(b)[0]
}

func TestOwnershipTranslation(t *testing.T) {
	sh := NewSharedRegion()
	d, _ := New(1, 4, 4096, sh)

	// Stripe base 4 on DIMM 1 of 4 is global block 5 = local block 1
	// (offset 64); bases 8 and 12 are local blocks 2 and 3. The NMP
	// personality addresses them globally, the normal one locally, and both
	// see the same bytes — directly, too, through the Env the core is given.
	put(t, d, 64, 42)
	put(t, d, 128, 1)
	if err := d.Execute(isa.Reduce(isa.RAdd, 4, 8, 12, 1)); err != nil {
		t.Fatal(err)
	}
	if got := lane0(t, d, 192); got != 43 {
		t.Fatalf("global stripe 12 -> local offset 192: got %v, want 43", got)
	}
	if got := nmp.UnpackFloats(nmp.Block(d.Local()[192:256]))[0]; got != 43 {
		t.Fatalf("Local() sees %v at offset 192, want 43", got)
	}

	// A base that is not stripe-aligned names foreign blocks: base 5 on
	// DIMM 1 is global block 6 = DIMM 2's.
	for _, in := range []isa.Instruction{
		isa.Reduce(isa.RAdd, 5, 8, 12, 1),
		isa.Reduce(isa.RAdd, 4, 5, 12, 1),
		isa.Reduce(isa.RAdd, 4, 8, 5, 1),
	} {
		if err := d.Execute(in); err == nil || !strings.Contains(err.Error(), "belongs to DIMM 2") {
			t.Fatalf("%v: want ownership error, got %v", in, err)
		}
	}
}

func TestCapacityBounds(t *testing.T) {
	sh := NewSharedRegion()
	d, _ := New(0, 2, 128, sh) // two local blocks: global blocks 0 and 2
	if err := d.Execute(isa.Reduce(isa.RAdd, 0, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Execute(isa.Reduce(isa.RAdd, 0, 2, 4, 1)); err == nil { // local block 2: beyond
		t.Fatal("want capacity error on write")
	}
	if err := d.Execute(isa.Reduce(isa.RAdd, 4, 2, 0, 1)); err == nil {
		t.Fatal("want capacity error on read")
	}
	if err := d.Execute(isa.Reduce(isa.RAdd, 0, 0, 0, 3)); err == nil {
		t.Fatal("want capacity error on an operand that ends past the rank")
	}
}

func TestNormalPersonalityBounds(t *testing.T) {
	sh := NewSharedRegion()
	d, _ := New(0, 1, 128, sh)
	if _, err := d.ReadBlock(63); err == nil {
		t.Fatal("want alignment error")
	}
	if _, err := d.ReadBlock(128); err == nil {
		t.Fatal("want bounds error")
	}
	if err := d.WriteBlock(65, nmp.Block{}); err == nil {
		t.Fatal("want alignment error on write")
	}
	if err := d.WriteBlock(128, nmp.Block{}); err == nil {
		t.Fatal("want bounds error on write")
	}
	// Block-aligned, and offset+64 wraps to 0: still out of bounds.
	const wraps = uint64(1<<64 - isa.BlockBytes)
	if _, err := d.ReadBlock(wraps); err == nil {
		t.Fatal("want bounds error for an offset whose end wraps")
	}
	if err := d.WriteBlock(wraps, nmp.Block{}); err == nil {
		t.Fatal("want bounds error on write for an offset whose end wraps")
	}
	if err := d.WriteBlock(64, nmp.PackFloats([]float32{7})); err != nil {
		t.Fatal(err)
	}
	b, err := d.ReadBlock(64)
	if err != nil || nmp.UnpackFloats(b)[0] != 7 {
		t.Fatalf("ReadBlock: %v %v", b, err)
	}
}

// TestStoreLayout pins the rank store's shape: a store of a huge page or
// more is cut to exactly its size (the alignment slack is unreachable) and,
// on Linux, starts on a 2 MiB boundary; a small store is a plain slice. How
// much of it the kernel actually backs with huge pages depends on
// fragmentation, so that is logged, not asserted.
func TestStoreLayout(t *testing.T) {
	for _, size := range []uint64{64 << 10, 8 << 20} {
		d, err := New(0, 1, size, NewSharedRegion())
		if err != nil {
			t.Fatal(err)
		}
		s := d.Local()
		if uint64(len(s)) != size || uint64(cap(s)) != size {
			t.Fatalf("%d B store: len %d cap %d", size, len(s), cap(s))
		}
		if size < 2<<20 || runtime.GOOS != "linux" {
			continue
		}
		if addr := uintptr(unsafe.Pointer(&s[0])); addr%(2<<20) != 0 {
			t.Fatalf("%d B store at %#x: not 2 MiB aligned", size, addr)
		}
		before := anonHugePagesKB(t)
		for i := 0; i < len(s); i += 4096 {
			s[i] = 1
		}
		t.Logf("%d MiB store written: AnonHugePages %+d kB", size>>20, anonHugePagesKB(t)-before)
	}
}

// anonHugePagesKB reads the process's AnonHugePages total, or -1 if the
// kernel does not report it.
func anonHugePagesKB(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "AnonHugePages:" {
			kb, _ := strconv.Atoi(f[1])
			return kb
		}
	}
	return -1
}

func TestSharedRegion(t *testing.T) {
	sh := NewSharedRegion()
	if _, err := sh.Run(0, 1); err == nil {
		t.Fatal("want error for unwritten block")
	}
	// 17 indices at block 3 fill block 3 and one lane of block 4, which is
	// zero-padded; blocks 0-2 and 5 stay unwritten.
	idx := make([]int32, 17)
	for i := range idx {
		idx[i] = int32(i + 1)
	}
	if err := sh.WriteIndices(3, idx); err != nil {
		t.Fatal(err)
	}
	b, err := sh.Run(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 128 || nmp.Block(b[:64]) != nmp.PackIndices(idx[:16]) || nmp.Block(b[64:]) != nmp.PackIndices(idx[16:]) {
		t.Fatalf("Run(3, 2) = % x", b)
	}
	for _, g := range []uint64{2, 5} {
		if _, err := sh.Run(g, 1); err == nil {
			t.Fatalf("block %d was never written: want error", g)
		}
	}
	if _, err := sh.Run(3, 3); err == nil {
		t.Fatal("want error for a run that ends in an unwritten block")
	}
	if sh.Bytes() < 5*64 || sh.Bytes() > 1024 {
		t.Fatalf("Bytes = %d for a list ending at 320", sh.Bytes())
	}

	// A forgotten block is unwritten again; its neighbour is not.
	sh.Forget(4, 1)
	if _, err := sh.Run(4, 1); err == nil {
		t.Fatal("want error after Forget")
	}
	if _, err := sh.Run(3, 1); err != nil {
		t.Fatal(err)
	}

	// The address space is bounded, and a refused write allocates nothing.
	before := sh.Bytes()
	if err := sh.WriteIndices(SharedCapacityBytes/64, idx); err == nil {
		t.Fatal("want error past the shared region's capacity")
	}
	if sh.Bytes() != before {
		t.Fatalf("refused write grew the slab: %d -> %d", before, sh.Bytes())
	}
}

// TestSharedRegionConcurrentDisjoint is the lane protocol under the race
// detector: every lane loads and re-reads its own range while the others do
// the same, and the ranges climb so the slab has to grow underneath them.
func TestSharedRegionConcurrentDisjoint(t *testing.T) {
	sh := NewSharedRegion()
	const lanes, rounds, blocks = 8, 200, 4
	var wg sync.WaitGroup
	for ln := 0; ln < lanes; ln++ {
		wg.Add(1)
		go func(ln int) {
			defer wg.Done()
			idx := make([]int32, blocks*isa.LanesPerBlock)
			for r := 0; r < rounds; r++ {
				base := uint64((r*lanes + ln) * blocks)
				for i := range idx {
					idx[i] = int32(ln<<20 | r<<8 | i)
				}
				if err := sh.WriteIndices(base, idx); err != nil {
					t.Error(err)
					return
				}
				got, err := sh.Run(base, blocks)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range idx {
					if v := int32(binary.NativeEndian.Uint32(got[i*4:])); v != idx[i] {
						t.Errorf("lane %d round %d index %d: got %#x want %#x", ln, r, i, v, idx[i])
						return
					}
				}
			}
		}(ln)
	}
	wg.Wait()
}

func TestExecuteThroughDIMM(t *testing.T) {
	// A one-DIMM "node": REDUCE over its local blocks.
	sh := NewSharedRegion()
	d, _ := New(0, 1, 4096, sh)
	put(t, d, 0, 3)
	put(t, d, 64, 4)
	if err := d.Execute(isa.Reduce(isa.RMul, 0, 1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if got := lane0(t, d, 128); got != 12 {
		t.Fatalf("3*4 = %v", got)
	}
	if d.Core().Stats().Instructions != 1 {
		t.Fatal("instruction not retired")
	}
}

func TestExecuteRemoteAccessFails(t *testing.T) {
	// An NMP core must not be able to touch blocks of another DIMM: REDUCE
	// with count 2 on a 2-DIMM node reads blocks {0,2} on DIMM 0 — fine —
	// but a mis-striped base (odd) would belong to DIMM 1 and must fail.
	sh := NewSharedRegion()
	d, _ := New(0, 2, 4096, sh)
	if err := d.Execute(isa.Reduce(isa.RAdd, 1, 3, 5, 1)); err == nil {
		t.Fatal("want rank-locality violation")
	}
}
