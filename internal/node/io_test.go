package node

import (
	"testing"

	"tensordimm/internal/isa"
)

// TestReadFloatsIntoRoundTrip pins the allocation-free float I/O path:
// WriteFloats (block-copied, zero-padded tail) followed by ReadFloatsInto
// must round-trip exactly, including counts that are not a multiple of the
// 16-lane block, bases that start on any DIMM of a stripe, and reads into
// reused buffers.
func TestReadFloatsIntoRoundTrip(t *testing.T) {
	n, err := New(Config{DIMMs: 4, PerDIMMBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const maxCount = 16*1024 + 3
	region, err := n.Alloc(maxCount*4 + n.StripeBytes())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, maxCount+isa.LanesPerBlock)
	junk := make([]byte, maxCount*4+n.StripeBytes())
	for i := range junk {
		junk[i] = 0xa5
	}
	for _, count := range []int{1, 15, 16, 17, 64, 100, maxCount} {
		for skew := uint64(0); skew < n.StripeBytes(); skew += isa.BlockBytes {
			base := region + skew // starts on DIMM skew/64 of the stripe
			if err := n.Write(region, junk); err != nil {
				t.Fatal(err)
			}
			vals := make([]float32, count)
			for i := range vals {
				vals[i] = float32(i)*0.5 - 7
			}
			if err := n.WriteFloats(base, vals); err != nil {
				t.Fatal(err)
			}
			// Read the whole last block: the lanes past count are zero.
			padded := (count + isa.LanesPerBlock - 1) / isa.LanesPerBlock * isa.LanesPerBlock
			got := buf[:padded]
			if err := n.ReadFloatsInto(base, got); err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("count %d at +%d: got[%d] = %v, want %v", count, skew, i, got[i], vals[i])
				}
			}
			for i := count; i < padded; i++ {
				if got[i] != 0 {
					t.Fatalf("count %d at +%d: tail lane %d = %v, want zero padding", count, skew, i, got[i])
				}
			}
			// The allocating form must agree with the into-form.
			alloc, err := n.ReadFloats(base, count)
			if err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				if alloc[i] != vals[i] {
					t.Fatalf("count %d at +%d: ReadFloats[%d] = %v, want %v", count, skew, i, alloc[i], vals[i])
				}
			}
		}
	}
}

// TestIOBoundsAndAlignment pins the error paths of the rewritten I/O.
func TestIOBoundsAndAlignment(t *testing.T) {
	n, err := New(Config{DIMMs: 2, PerDIMMBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.WriteFloats(32, []float32{1}); err == nil {
		t.Fatal("want unaligned-base write error")
	}
	if err := n.ReadFloatsInto(32, make([]float32, 1)); err == nil {
		t.Fatal("want unaligned-base read error")
	}
	if err := n.WriteFloats(n.CapacityBytes()-64, make([]float32, 32)); err == nil {
		t.Fatal("want out-of-capacity write error")
	}
	if err := n.ReadFloatsInto(n.CapacityBytes()-64, make([]float32, 32)); err == nil {
		t.Fatal("want out-of-capacity read error")
	}
}

// TestExecuteAfterClose pins the Close contract: Close is idempotent and
// further Execute calls fail cleanly instead of running.
func TestExecuteAfterClose(t *testing.T) {
	n, err := New(Config{DIMMs: 2, PerDIMMBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close() // idempotent
	prog := isa.Program{isa.Gather(0, 0, 8, 16)}
	if err := n.Execute(prog); err == nil {
		t.Fatal("want error executing on a closed node")
	}
}
