package wire

import (
	"bytes"
	"io"
	"testing"
)

// TestReadFrameZeroAlloc pins ReadFrame's allocation freedom per frame,
// not amortized over a benchmark: once the reused buffer has grown to the
// frame size, reading a frame — length prefix included — must not touch
// the heap. The length prefix is deliberately read through the reused
// buffer because a local array would escape through the io.Reader
// interface and cost one allocation per frame on every endpoint.
func TestReadFrameZeroAlloc(t *testing.T) {
	g := testGeom
	perTable := make([][]int, g.Tables)
	for tt := range perTable {
		perTable[tt] = make([]int, g.MaxBatch*g.Reduction)
	}
	frame := AppendEmbed(nil, 9, 0, perTable, g.MaxBatch, g.Reduction)
	r := bytes.NewReader(frame)
	buf := make([]byte, 0, len(frame))
	// Warm once so the buffer is at steady-state capacity.
	if _, _, _, buf2, err := ReadFrame(r, buf, 0); err != nil {
		t.Fatal(err)
	} else {
		buf = buf2
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		var err error
		_, _, _, buf, err = ReadFrame(r, buf, 0)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame allocates %.1f times per frame, want 0", allocs)
	}
}

// TestHandshakeZeroAlloc pins both handshake readers' allocation freedom:
// with a warmed reused buffer, accepting a client hello and parsing a
// server hello must not touch the heap. A server accepting thousands of
// reconnecting clients (and a client supervisor redialing them) runs this
// path on every connection.
func TestHandshakeZeroAlloc(t *testing.T) {
	client := AppendClientHello(nil, 1<<20)
	server := AppendServerHello(nil, Hello{Geom: testGeom, Role: RoleReplica, UpdateSeq: 3, MaxFrameBytes: 1 << 20})
	r := bytes.NewReader(client)
	var buf []byte
	// Warm once so the buffer is at steady-state capacity.
	if _, buf2, err := ReadClientHello(r, buf); err != nil {
		t.Fatal(err)
	} else {
		buf = buf2
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(client)
		var err error
		_, buf, err = ReadClientHello(r, buf)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadClientHello allocates %.1f times per handshake, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		r.Reset(server)
		var err error
		_, buf, err = ReadServerHello(r, buf)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadServerHello allocates %.1f times per handshake, want 0", allocs)
	}
}

// TestBatchCodecZeroAlloc pins the coalescing fast path: stamping a BATCH
// header over reserved headroom and iterating a decoded batch are both
// allocation-free, so coalescing adds no per-frame heap traffic over the
// plain path it replaces.
func TestBatchCodecZeroAlloc(t *testing.T) {
	sub := AppendFrame(nil, OpPing, 7, nil)
	frame := make([]byte, BatchHeaderBytes, BatchHeaderBytes+4*len(sub))
	for i := 0; i < 4; i++ {
		frame = append(frame, sub...)
	}
	allocs := testing.AllocsPerRun(100, func() {
		frame = finishBatch(frame, 1, 4)
		it, err := DecodeBatch(frame[HeaderBytes:])
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, _, _, ok := it.Next()
			if !ok {
				break
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batch finish+iterate allocates %.1f times, want 0", allocs)
	}
}

// TestWriterZeroAlloc pins the group commit's steady state: once both
// halves of the double buffer have grown, appending frames and flushing
// them (plain or as a BATCH) does not touch the heap.
func TestWriterZeroAlloc(t *testing.T) {
	frame := AppendFrame(nil, OpEmbedResp, 7, make([]byte, 256))
	w := NewWriter(DefaultMaxFrameBytes, DefaultMaxFrameBytes)
	round := func(n int) {
		for i := 0; i < n; i++ {
			w.Append(frame)
		}
		if _, _, _, err := w.Flush(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	round(64) // warm both halves of the double buffer
	round(64)
	allocs := testing.AllocsPerRun(100, func() {
		round(1)
		round(64)
	})
	if allocs != 0 {
		t.Fatalf("Writer Append+Flush allocates %.1f times per round, want 0", allocs)
	}
}

// BenchmarkReadFrame measures the frame reader alone — the per-frame cost
// every endpoint pays before any decode — and reports its allocation rate
// (which must stay 0; TestNetRoundTripZeroAlloc pins the full network path).
func BenchmarkReadFrame(b *testing.B) {
	g := testGeom
	perTable := make([][]int, g.Tables)
	for tt := range perTable {
		perTable[tt] = make([]int, g.MaxBatch*g.Reduction)
	}
	frame := AppendEmbed(nil, 9, 0, perTable, g.MaxBatch, g.Reduction)
	r := bytes.NewReader(frame)
	var buf []byte
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		var err error
		_, _, _, buf, err = ReadFrame(r, buf, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}
