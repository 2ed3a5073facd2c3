package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// TestBatchRoundTrip is the encode→decode identity property: random
// mixes of sub-frames packed into a BATCH come back op-for-op,
// id-for-id, byte-for-byte.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		type sub struct {
			op      Op
			id      uint64
			payload []byte
		}
		subs := make([]sub, n)
		frames := make([][]byte, n)
		for i := range subs {
			ops := []Op{OpEmbed, OpEmbedResp, OpUpdate, OpPing, OpError, OpSync}
			p := make([]byte, rng.Intn(64))
			rng.Read(p)
			subs[i] = sub{op: ops[rng.Intn(len(ops))], id: rng.Uint64(), payload: p}
			frames[i] = AppendFrame(nil, subs[i].op, subs[i].id, subs[i].payload)
		}
		batch := AppendBatch(nil, uint64(trial), frames...)

		op, id, payload, _, err := ReadFrame(bytes.NewReader(batch), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if op != OpBatch || id != uint64(trial) {
			t.Fatalf("op %d id %d, want OpBatch id %d", op, id, trial)
		}
		it, err := DecodeBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		if it.Count() != n {
			t.Fatalf("count %d, want %d", it.Count(), n)
		}
		for i := 0; ; i++ {
			sop, sid, sp, ok := it.Next()
			if !ok {
				if i != n {
					t.Fatalf("iterator stopped after %d of %d sub-frames: %v", i, n, it.Err())
				}
				break
			}
			if sop != subs[i].op || sid != subs[i].id || !bytes.Equal(sp, subs[i].payload) {
				t.Fatalf("sub %d: op %d id %d %d B, want op %d id %d %d B",
					i, sop, sid, len(sp), subs[i].op, subs[i].id, len(subs[i].payload))
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		// Draining past the end stays exhausted and error-free.
		if _, _, _, ok := it.Next(); ok || it.Err() != nil {
			t.Fatalf("exhausted iterator yielded more: ok=%v err=%v", ok, it.Err())
		}
	}
}

// TestFinishBatchMatchesAppendBatch pins that the zero-copy headroom path
// and the convenience encoder produce identical bytes.
func TestFinishBatchMatchesAppendBatch(t *testing.T) {
	a := AppendFrame(nil, OpPing, 1, nil)
	b := AppendFrame(nil, OpError, 2, []byte{0, 1, 2})
	want := AppendBatch(nil, 42, a, b)

	got := make([]byte, BatchHeaderBytes, 256)
	got = append(got, a...)
	got = append(got, b...)
	got = finishBatch(got, 42, 2)
	if !bytes.Equal(got, want) {
		t.Fatalf("finishBatch bytes differ from AppendBatch:\n%x\n%x", got, want)
	}
}

// TestDecodeBatchRejectsCorruption covers the structural violations the
// tentpole's fuzz satellite targets: mutated counts, truncated interior
// sub-frames, oversized K, nesting, and trailing garbage — all typed
// errors, never panics.
func TestDecodeBatchRejectsCorruption(t *testing.T) {
	sub := AppendFrame(nil, OpPing, 1, nil)
	valid := AppendBatch(nil, 9, sub, sub)
	payload := valid[HeaderBytes:]

	drain := func(p []byte) error {
		it, err := DecodeBatch(p)
		if err != nil {
			return err
		}
		for {
			if _, _, _, ok := it.Next(); !ok {
				break
			}
		}
		return it.Err()
	}
	mutate := func(f func(p []byte) []byte) []byte {
		return f(append([]byte{}, payload...))
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "at least 2"},
		{"zero count", mutate(func(p []byte) []byte { p[0], p[1] = 0, 0; return p }), "out of range"},
		{"oversized count", mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint16(p, MaxBatchSubFrames+1)
			return p
		}), "out of range"},
		{"count above content", mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint16(p, 3)
			return p
		}), "truncated"},
		{"count below content", mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint16(p, 1)
			return p
		}), "trailing"},
		{"truncated interior length prefix", payload[:len(payload)-len(sub)-2], "truncated"},
		{"truncated interior body", payload[:len(payload)-2], "truncated"},
		{"sub-frame below op+id minimum", mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[2:], 3)
			return p
		}), "minimum"},
		{"nested batch", AppendBatch(nil, 1, valid)[HeaderBytes:], "nest"},
		{"trailing garbage", mutate(func(p []byte) []byte { return append(p, 0xde, 0xad) }), "trailing"},
	}
	for _, tc := range cases {
		err := drain(tc.payload)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// The valid prefix before a violation is still delivered: a batch whose
	// second sub-frame is truncated yields the first, then the error.
	cut := append([]byte{}, payload[:len(payload)-2]...)
	it, err := DecodeBatch(cut)
	if err != nil {
		t.Fatal(err)
	}
	if _, id, _, ok := it.Next(); !ok || id != 1 {
		t.Fatalf("first sub-frame of damaged batch: ok=%v id=%d", ok, id)
	}
	if _, _, _, ok := it.Next(); ok {
		t.Fatal("damaged second sub-frame delivered")
	}
	if it.Err() == nil {
		t.Fatal("damaged batch drained without error")
	}
}

// FuzzDecodeBatch throws arbitrary bytes at the batch decoder: it must
// return typed errors or clean iterations, never panic or over-read.
func FuzzDecodeBatch(f *testing.F) {
	sub := AppendFrame(nil, OpPing, 1, nil)
	f.Add(AppendBatch(nil, 9, sub, sub)[HeaderBytes:])
	f.Add(AppendBatch(nil, 9, AppendFrame(nil, OpEmbed, 2, []byte{1, 2, 3, 4}))[HeaderBytes:])
	f.Add([]byte{2, 0})                                                // count 2, no content
	f.Add([]byte{0xff, 0xff, 0, 0})                                    // oversized count
	f.Add(AppendBatch(nil, 1, AppendBatch(nil, 2, sub))[HeaderBytes:]) // nested
	f.Fuzz(func(t *testing.T, payload []byte) {
		it, err := DecodeBatch(payload)
		if err != nil {
			return
		}
		seen := 0
		for {
			_, _, sp, ok := it.Next()
			if !ok {
				break
			}
			_ = sp
			seen++
		}
		if seen > it.Count() {
			t.Fatalf("iterator yielded %d sub-frames from a count-%d batch", seen, it.Count())
		}
		if it.Err() == nil && seen != it.Count() {
			t.Fatalf("clean drain yielded %d of %d sub-frames", seen, it.Count())
		}
	})
}
