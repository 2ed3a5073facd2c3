package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

// goldenFrame is one encoder call and the exact bytes it must produce. The
// hex is grouped by field — header (length, op, id), then the payload's
// fields in order — so a layout change shows up as the field it moved.
type goldenFrame struct {
	name string
	got  []byte
	hex  string
}

// goldenFrames returns one frame per op (RESTORE twice, for both commit
// bytes) and a two-frame BATCH, over a 2-table, reduction-2, dim-2 shape.
func goldenFrames() []goldenFrame {
	one := []Update{{Table: 1, Rows: []int{5}, Grads: []float32{0.5, 2}}}
	two := []Update{
		{Table: 1, Rows: []int{5, 6}, Grads: []float32{0.5, 2, -1, 3}},
		{Table: 0, Rows: []int{9}, Grads: []float32{1, 1}},
	}
	ping := AppendFrame(nil, OpPing, 14, nil)
	metrics := AppendFrame(nil, OpMetrics, 15, nil)
	return []goldenFrame{
		{"EMBED", AppendEmbed(nil, 0x0102030405060708, 1500, [][]int{{1, 2}, {3, 4}}, 1, 2),
			"21000000 01 0807060504030201 | dc050000 01000000 | 01000000 02000000 03000000 04000000"},
		{"EMBED_RESP", AppendEmbedResp(nil, 9, []float32{1, -2.5}),
			"11000000 02 0900000000000000 | 0000803f 000020c0"},
		{"UPDATE", AppendUpdate(nil, 10, 2750, one),
			"23000000 03 0a00000000000000 | be0a0000 0100 | 01000000 01000000 05000000 0000003f 00000040"},
		{"UPDATE_RESP", AppendFrame(nil, OpUpdateResp, 10, nil),
			"09000000 04 0a00000000000000"},
		{"SYNC", AppendSync(nil, 11, 19, two),
			"47000000 0a 0b00000000000000 | 1300000000000000 0200" +
				" | 01000000 02000000 05000000 06000000 0000003f 00000040 000080bf 00004040" +
				" | 00000000 01000000 09000000 0000803f 0000803f"},
		{"SYNC_RESP", AppendSyncResp(nil, 11, 20),
			"11000000 0b 0b00000000000000 | 1400000000000000"},
		{"RESTORE commit 0", AppendRestore(nil, 12, 40, false, 2, []int{7, 8}, []float32{1, 2, 3, 4}),
			"32000000 0d 0c00000000000000 | 2800000000000000 00 | 02000000 02000000 07000000 08000000 0000803f 00000040 00004040 00008040"},
		{"RESTORE commit 1", AppendRestore(nil, 12, 40, true, 2, []int{7, 8}, []float32{1, 2, 3, 4}),
			"32000000 0d 0c00000000000000 | 2800000000000000 01 | 02000000 02000000 07000000 08000000 0000803f 00000040 00004040 00008040"},
		{"RESTORE_RESP", AppendRestoreResp(nil, 12, 41),
			"11000000 0e 0c00000000000000 | 2900000000000000"},
		{"ERROR", AppendError(nil, 13, ErrUnavailable, "down"),
			"0f000000 09 0d00000000000000 | 0500 646f776e"},
		{"PING", ping, "09000000 07 0e00000000000000"},
		{"METRICS", metrics, "09000000 05 0f00000000000000"},
		{"BATCH", AppendBatch(nil, 16, ping, metrics),
			"25000000 0c 1000000000000000 | 0200 | 09000000 07 0e00000000000000 | 09000000 05 0f00000000000000"},
	}
}

// unhex decodes a grouped golden string.
func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.NewReplacer(" ", "", "|", "").Replace(s))
	if err != nil {
		t.Fatalf("golden hex %q: %v", s, err)
	}
	return b
}

// TestGoldenFrameBytes pins the exact bytes of one frame per op: protocol
// revision 7 on the wire. A refactor of the codecs must leave every byte
// where it is; a deliberate layout change bumps Version and this table.
func TestGoldenFrameBytes(t *testing.T) {
	if Version != 7 {
		t.Fatalf("Version = %d: these bytes are revision 7's", Version)
	}
	for _, f := range goldenFrames() {
		if want := unhex(t, f.hex); !bytes.Equal(f.got, want) {
			t.Errorf("%s:\n got %x\nwant %x", f.name, f.got, want)
		}
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	g := testGeom
	rows := []int{0, 639, 17, 17}
	vals := seq(len(rows) * g.Dim)
	for _, commit := range []bool{false, true} {
		frame := AppendRestore(nil, 77, 1<<40+3, commit, 2, rows, vals)
		op, id, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if op != OpRestore || id != 77 {
			t.Fatalf("op %d id %d, want OpRestore id 77", op, id)
		}
		var s UpdateScratch
		gotSeq, gotCommit, up, err := DecodeRestore(payload, g, &s)
		if err != nil {
			t.Fatal(err)
		}
		if gotSeq != 1<<40+3 || gotCommit != commit || up.Table != 2 || len(up.Rows) != len(rows) || len(up.Grads) != len(vals) {
			t.Fatalf("decoded seq %d commit %v table %d, %d rows, %d values; want %d %v 2, %d, %d",
				gotSeq, gotCommit, up.Table, len(up.Rows), len(up.Grads), uint64(1<<40+3), commit, len(rows), len(vals))
		}
		for i, r := range rows {
			if up.Rows[i] != r {
				t.Fatalf("row %d: %d, want %d", i, up.Rows[i], r)
			}
		}
		for i, v := range vals {
			if math.Float32bits(up.Grads[i]) != math.Float32bits(v) {
				t.Fatalf("value %d mismatch", i)
			}
		}
		// Second decode into the same scratch must reuse the arenas.
		before := cap(s.Grads)
		if _, _, _, err := DecodeRestore(payload, g, &s); err != nil {
			t.Fatal(err)
		}
		if cap(s.Grads) != before {
			t.Fatalf("value arena regrew from %d to %d on identical decode", before, cap(s.Grads))
		}
	}
}

func TestDecodeRestoreRejectsCorruption(t *testing.T) {
	g := testGeom
	frame := AppendRestore(nil, 1, 5, true, 1, []int{2, 3}, seq(2*g.Dim))
	_, _, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var s UpdateScratch
	mutate := func(f func(p []byte) []byte) []byte {
		return f(append([]byte{}, payload...))
	}
	// The payload: seq [0:8], commit [8], table [9:13], row count [13:17],
	// rows [17:25], values.
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"seq only", payload[:8]},
		{"no entry", payload[:9]},
		{"commit byte 2", mutate(func(p []byte) []byte { p[8] = 2; return p })},
		{"table out of range", mutate(func(p []byte) []byte { binary.LittleEndian.PutUint32(p[9:], 99); return p })},
		{"zero rows", mutate(func(p []byte) []byte { binary.LittleEndian.PutUint32(p[13:], 0); return p[:17] })},
		{"row count over cap", mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[13:], uint32(g.MaxBatch*g.Reduction+1))
			return p
		})},
		{"huge row count", mutate(func(p []byte) []byte { binary.LittleEndian.PutUint32(p[13:], 0xffffffff); return p })},
		{"row index out of range", mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[17:], uint32(g.TableRows))
			return p
		})},
		{"truncated values", payload[:len(payload)-3]},
		{"trailing garbage", mutate(func(p []byte) []byte { return append(p, 1, 2, 3) })},
	}
	for _, tc := range cases {
		if _, _, _, err := DecodeRestore(tc.payload, g, &s); err == nil {
			t.Fatalf("%s: decode accepted", tc.name)
		}
	}
}
