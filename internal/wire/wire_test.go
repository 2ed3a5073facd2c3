package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

var testGeom = Geometry{Tables: 3, Reduction: 2, Dim: 8, TableRows: 640, MaxBatch: 16}

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(AppendClientHello(nil, 1<<16))
	cmax, scratch, err := ReadClientHello(&buf, nil)
	if err != nil {
		t.Fatalf("client hello round trip: %v", err)
	}
	if cmax != 1<<16 {
		t.Fatalf("client frame limit %d, want %d", cmax, 1<<16)
	}
	// An unannounced (zero) limit normalizes to the default.
	buf.Reset()
	buf.Write(AppendClientHello(nil, 0))
	cmax, scratch, err = ReadClientHello(&buf, scratch)
	if err != nil || cmax != DefaultMaxFrameBytes {
		t.Fatalf("zero client frame limit: %d, %v; want %d", cmax, err, DefaultMaxFrameBytes)
	}
	buf.Reset()
	hello := Hello{Geom: testGeom, Role: RoleReplica, UpdateSeq: 712, MaxFrameBytes: 1 << 20}
	buf.Write(AppendServerHello(nil, hello))
	h, scratch, err := ReadServerHello(&buf, scratch)
	if err != nil {
		t.Fatalf("server hello round trip: %v", err)
	}
	if h != hello {
		t.Fatalf("hello %+v round-tripped to %+v", hello, h)
	}
	buf.Reset()
	buf.Write(AppendServerHello(nil, Hello{Geom: testGeom}))
	h, _, err = ReadServerHello(&buf, scratch)
	if err != nil || h.MaxFrameBytes != DefaultMaxFrameBytes {
		t.Fatalf("zero server frame limit: %d, %v; want %d", h.MaxFrameBytes, err, DefaultMaxFrameBytes)
	}
	if h.Geom.Width() != testGeom.Tables*testGeom.Dim {
		t.Fatalf("Width() = %d, want %d", h.Geom.Width(), testGeom.Tables*testGeom.Dim)
	}
	if h.Role.String() != "replica" && RoleStandalone.String() != "standalone" {
		t.Fatalf("role names: %q / %q", h.Role, RoleStandalone)
	}
	if RoleReplica.String() != "replica" || RoleStandalone.String() != "standalone" {
		t.Fatalf("role names: %q / %q", RoleReplica, RoleStandalone)
	}
}

func TestHandshakeRejectsBadMagicAndVersion(t *testing.T) {
	bad := AppendClientHello(nil, 0)
	bad[0] ^= 0xff
	if _, _, err := ReadClientHello(bytes.NewReader(bad), nil); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("corrupt magic: err = %v, want magic error", err)
	}
	// A newer peer and the previous revision (whose METRICS payload trailed
	// a text report) are both refused at connect time.
	for _, v := range []uint16{Version + 1, Version - 1} {
		bad = AppendClientHello(nil, 0)
		binary.LittleEndian.PutUint16(bad[4:], v)
		if _, _, err := ReadClientHello(bytes.NewReader(bad), nil); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("client version %d: err = %v, want version error", v, err)
		}
	}
	srv := AppendServerHello(nil, Hello{Geom: testGeom})
	srv[0] ^= 0xff
	if _, _, err := ReadServerHello(bytes.NewReader(srv), nil); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("corrupt server magic: err = %v, want magic error", err)
	}
	// A server speaking a different revision is rejected.
	for _, v := range []uint16{Version + 1, Version - 1} {
		srv = AppendServerHello(nil, Hello{Geom: testGeom})
		binary.LittleEndian.PutUint16(srv[4:], v)
		if _, _, err := ReadServerHello(bytes.NewReader(srv), nil); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("server version %d: err = %v, want version error", v, err)
		}
	}
	// Zero geometry fields are rejected even when the framing is valid.
	srv = AppendServerHello(nil, Hello{Geom: Geometry{Tables: 0, Reduction: 1, Dim: 8, MaxBatch: 4}})
	if _, _, err := ReadServerHello(bytes.NewReader(srv), nil); err == nil {
		t.Fatal("zero-table geometry accepted")
	}
	// An unknown role byte is rejected (a corrupt or future-revision peer).
	srv = AppendServerHello(nil, Hello{Geom: testGeom, Role: Role(9)})
	if _, _, err := ReadServerHello(bytes.NewReader(srv), nil); err == nil || !strings.Contains(err.Error(), "role") {
		t.Fatalf("unknown role: err = %v, want role error", err)
	}
	// Truncated handshakes fail cleanly.
	if _, _, err := ReadClientHello(bytes.NewReader(AppendClientHello(nil, 0)[:3]), nil); err == nil {
		t.Fatal("truncated client hello accepted")
	}
	if _, _, err := ReadServerHello(bytes.NewReader(AppendServerHello(nil, Hello{Geom: testGeom})[:10]), nil); err == nil {
		t.Fatal("truncated server hello accepted")
	}
}

func TestEmbedRoundTrip(t *testing.T) {
	g := testGeom
	const batch = 3
	n := batch * g.Reduction
	perTable := make([][]int, g.Tables)
	for tt := range perTable {
		perTable[tt] = make([]int, n)
		for i := range perTable[tt] {
			perTable[tt][i] = tt*100 + i
		}
	}
	frame := AppendEmbed(nil, 42, 1500, perTable, batch, g.Reduction)

	op, id, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpEmbed || id != 42 {
		t.Fatalf("op %d id %d, want OpEmbed id 42", op, id)
	}
	var rows [][]int
	var idx []int
	gotBatch, gotBudget, rows, idx, err := DecodeEmbed(payload, g, rows, idx)
	if err != nil {
		t.Fatal(err)
	}
	if gotBatch != batch {
		t.Fatalf("batch %d, want %d", gotBatch, batch)
	}
	if gotBudget != 1500 {
		t.Fatalf("deadline budget %d, want 1500", gotBudget)
	}
	for tt := range perTable {
		for i := range perTable[tt] {
			if rows[tt][i] != perTable[tt][i] {
				t.Fatalf("table %d index %d: %d, want %d", tt, i, rows[tt][i], perTable[tt][i])
			}
		}
	}
	// Reuse: decoding a second frame into the same buffers must not grow
	// them.
	frame2 := AppendEmbed(frame[:0], 43, 0, perTable, batch, g.Reduction)
	_, _, payload, _, err = ReadFrame(bytes.NewReader(frame2), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := cap(idx)
	if _, _, rows, idx, err = DecodeEmbed(payload, g, rows, idx); err != nil {
		t.Fatal(err)
	}
	if cap(idx) != before {
		t.Fatalf("idx buffer regrew from %d to %d on identical decode", before, cap(idx))
	}
	_ = rows
}

func TestDecodeEmbedRejectsBadShapes(t *testing.T) {
	g := testGeom
	perTable := [][]int{{1, 2}, {3, 4}, {5, 6}}
	frame := AppendEmbed(nil, 1, 0, perTable, 1, g.Reduction)
	_, _, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	withBudget := func(batch uint32) []byte {
		p := binary.LittleEndian.AppendUint32(nil, 0)
		return binary.LittleEndian.AppendUint32(p, batch)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"budget only", payload[:4]},
		{"truncated", payload[:len(payload)-1]},
		{"trailing garbage", append(append([]byte{}, payload...), 0xde, 0xad)},
		{"zero batch", withBudget(0)},
		{"oversized batch", withBudget(uint32(g.MaxBatch + 1))},
		{"index out of range", func() []byte {
			p := append([]byte{}, payload...)
			binary.LittleEndian.PutUint32(p[8:], uint32(g.TableRows))
			return p
		}()},
	}
	for _, tc := range cases {
		if _, _, _, _, err := DecodeEmbed(tc.payload, g, nil, nil); err == nil {
			t.Fatalf("%s: decode accepted", tc.name)
		}
	}
}

// TestRequestContract pins CheckRead and CheckRows: every rejection class,
// and acceptance exactly at each boundary (batch == MaxBatch, rows ==
// MaxBatch x Reduction, row == TableRows-1).
func TestRequestContract(t *testing.T) {
	g := testGeom
	lists := func(batch int, set func(t, i int) int) [][]int {
		rows := make([][]int, g.Tables)
		for t := range rows {
			rows[t] = make([]int, batch*g.Reduction)
			for i := range rows[t] {
				rows[t][i] = set(t, i)
			}
		}
		return rows
	}
	zero := func(int, int) int { return 0 }
	rowAt := func(tbl, row int) func(t, i int) int {
		return func(t, i int) int {
			if t == tbl && i == 0 {
				return row
			}
			return 0
		}
	}
	last := g.Tables - 1
	reads := []struct {
		name  string
		rows  [][]int
		batch int
		want  string // "" accepts
	}{
		{"batch 1", lists(1, zero), 1, ""},
		{"batch == MaxBatch, row == TableRows-1", lists(g.MaxBatch, rowAt(last, g.TableRows-1)), g.MaxBatch, ""},
		{"zero batch", lists(0, zero), 0, "batch 0 out of range"},
		{"negative batch", lists(0, zero), -1, "batch -1 out of range"},
		{"batch above MaxBatch", lists(g.MaxBatch+1, zero), g.MaxBatch + 1, "out of range [1, 16]"},
		{"missing table list", lists(1, zero)[1:], 1, "2 index lists for 3 tables"},
		{"extra table list", append(lists(1, zero), []int{0, 0}), 1, "4 index lists for 3 tables"},
		{"short row list", append(lists(1, zero)[:last], []int{0}), 1, "table 2: 1 rows for batch 1"},
		{"long row list", lists(2, zero), 1, "table 0: 4 rows for batch 1"},
		{"row == TableRows", lists(1, rowAt(0, g.TableRows)), 1, "table 0: row index 640 out of range"},
		{"row past the last table", lists(1, rowAt(last, g.TableRows+3)), 1, "table 2: row index 643 out of range"},
		{"negative row", lists(1, rowAt(1, -1)), 1, "table 1: row index -1 out of range"},
	}
	for _, tc := range reads {
		err := g.CheckRead(tc.rows, tc.batch)
		if tc.want == "" && err != nil {
			t.Errorf("CheckRead %s: rejected: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("CheckRead %s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	maxRows := g.MaxBatch * g.Reduction
	n := func(k, row int) []int {
		rows := make([]int, k)
		if k > 0 {
			rows[k-1] = row
		}
		return rows
	}
	writes := []struct {
		name  string
		table int
		rows  []int
		vals  int
		want  string
	}{
		{"one row", 0, n(1, 0), g.Dim, ""},
		{"rows == MaxBatch x Reduction, row == TableRows-1", last, n(maxRows, g.TableRows-1), maxRows * g.Dim, ""},
		{"negative table", -1, n(1, 0), g.Dim, "table -1 out of range [0, 3)"},
		{"table past the last", g.Tables, n(1, 0), g.Dim, "table 3 out of range [0, 3)"},
		{"zero rows", 0, nil, 0, "0 rows out of range [1, 32]"},
		{"rows above the cap", 0, n(maxRows+1, 0), (maxRows + 1) * g.Dim, "33 rows out of range [1, 32]"},
		{"row == TableRows", 1, n(2, g.TableRows), 2 * g.Dim, "table 1: row index 640 out of range"},
		{"negative row", 1, n(1, -1), g.Dim, "table 1: row index -1 out of range"},
		{"short values", 0, n(2, 0), 2*g.Dim - 1, "15 values for 2 rows of dim 8"},
		{"long values", 0, n(1, 0), g.Dim + 1, "9 values for 1 rows of dim 8"},
	}
	for _, tc := range writes {
		err := g.CheckRows(tc.table, tc.rows, tc.vals)
		if tc.want == "" && err != nil {
			t.Errorf("CheckRows %s: rejected: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("CheckRows %s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestEmbedRespRoundTrip(t *testing.T) {
	vals := []float32{0, 1.5, -2.25, float32(math.Inf(1)), float32(math.NaN()), 3.1415927}
	frame := AppendEmbedResp(nil, 7, vals)
	op, id, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpEmbedResp || id != 7 {
		t.Fatalf("op %d id %d, want OpEmbedResp id 7", op, id)
	}
	dst := make([]float32, len(vals))
	if err := DecodeEmbedResp(payload, dst); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float32bits(dst[i]) != math.Float32bits(vals[i]) {
			t.Fatalf("value %d: bits %#x, want %#x (bit-identity contract)", i,
				math.Float32bits(dst[i]), math.Float32bits(vals[i]))
		}
	}
	if err := DecodeEmbedResp(payload[:len(payload)-2], dst); err == nil {
		t.Fatal("truncated response accepted")
	}
	if err := DecodeEmbedResp(payload, dst[:len(dst)-1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	g := testGeom
	ups := []Update{
		{Table: 0, Rows: []int{5, 5, 9}, Grads: seq(3 * g.Dim)},
		{Table: 2, Rows: []int{0}, Grads: seq(g.Dim)},
	}
	frame := AppendUpdate(nil, 99, 2750, ups)
	op, id, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpUpdate || id != 99 {
		t.Fatalf("op %d id %d, want OpUpdate id 99", op, id)
	}
	var s UpdateScratch
	got, budget, err := DecodeUpdate(payload, g, &s)
	if err != nil {
		t.Fatal(err)
	}
	if budget != 2750 {
		t.Fatalf("deadline budget %d, want 2750", budget)
	}
	if len(got) != len(ups) {
		t.Fatalf("%d updates, want %d", len(got), len(ups))
	}
	for u := range ups {
		if got[u].Table != ups[u].Table || len(got[u].Rows) != len(ups[u].Rows) {
			t.Fatalf("update %d header mismatch: %+v", u, got[u])
		}
		for i, r := range ups[u].Rows {
			if got[u].Rows[i] != r {
				t.Fatalf("update %d row %d: %d, want %d", u, i, got[u].Rows[i], r)
			}
		}
		for i, v := range ups[u].Grads {
			if math.Float32bits(got[u].Grads[i]) != math.Float32bits(v) {
				t.Fatalf("update %d grad %d mismatch", u, i)
			}
		}
	}
	// Second decode into the same scratch must reuse the arenas.
	before := cap(s.Grads)
	if _, _, err := DecodeUpdate(payload, g, &s); err != nil {
		t.Fatal(err)
	}
	if cap(s.Grads) != before {
		t.Fatalf("grad arena regrew from %d to %d on identical decode", before, cap(s.Grads))
	}
}

func TestDecodeUpdateRejectsCorruption(t *testing.T) {
	g := testGeom
	frame := AppendUpdate(nil, 1, 0, []Update{{Table: 1, Rows: []int{2, 3}, Grads: seq(2 * g.Dim)}})
	_, _, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var s UpdateScratch
	mutate := func(f func(p []byte) []byte) []byte {
		return f(append([]byte{}, payload...))
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"budget only", payload[:4]},
		{"zero count", mutate(func(p []byte) []byte { p[4], p[5] = 0, 0; return p })},
		{"huge count", mutate(func(p []byte) []byte { binary.LittleEndian.PutUint16(p[4:], 0xffff); return p })},
		{"table out of range", mutate(func(p []byte) []byte { binary.LittleEndian.PutUint32(p[6:], 99); return p })},
		{"row count over cap", mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[10:], uint32(g.MaxBatch*g.Reduction+1))
			return p
		})},
		{"row index out of range", mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[14:], uint32(g.TableRows))
			return p
		})},
		{"truncated grads", payload[:len(payload)-3]},
		{"trailing garbage", mutate(func(p []byte) []byte { return append(p, 1, 2, 3) })},
	}
	for _, tc := range cases {
		if _, _, err := DecodeUpdate(tc.payload, g, &s); err == nil {
			t.Fatalf("%s: decode accepted", tc.name)
		}
	}
}

func TestSyncRoundTrip(t *testing.T) {
	g := testGeom
	ups := []Update{
		{Table: 1, Rows: []int{7, 7, 11}, Grads: seq(3 * g.Dim)},
	}
	frame := AppendSync(nil, 55, 19, ups)
	op, id, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpSync || id != 55 {
		t.Fatalf("op %d id %d, want OpSync id 55", op, id)
	}
	var s UpdateScratch
	gotSeq, got, err := DecodeSync(payload, g, &s)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != 19 {
		t.Fatalf("seq %d, want 19", gotSeq)
	}
	if len(got) != 1 || got[0].Table != 1 || len(got[0].Rows) != 3 {
		t.Fatalf("decoded %+v", got)
	}
	for i, v := range ups[0].Grads {
		if math.Float32bits(got[0].Grads[i]) != math.Float32bits(v) {
			t.Fatalf("grad %d mismatch", i)
		}
	}
	// Corruption: short seq prefix, and a corrupt inner batch both fail.
	if _, _, err := DecodeSync(payload[:7], g, &s); err == nil {
		t.Fatal("7-byte sync payload accepted")
	}
	if _, _, err := DecodeSync(payload[:len(payload)-2], g, &s); err == nil {
		t.Fatal("truncated sync batch accepted")
	}

	resp := AppendSyncResp(nil, 55, 20)
	op, id, payload, _, err = ReadFrame(bytes.NewReader(resp), nil, 0)
	if err != nil || op != OpSyncResp || id != 55 {
		t.Fatalf("sync resp: op %d id %d err %v", op, id, err)
	}
	newSeq, err := DecodeSyncResp(payload)
	if err != nil || newSeq != 20 {
		t.Fatalf("sync resp decoded seq %d err %v, want 20", newSeq, err)
	}
	if _, err := DecodeSyncResp(payload[:4]); err == nil {
		t.Fatal("short sync resp accepted")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	frame := AppendError(nil, 13, ErrOverloaded, "budget exhausted")
	op, id, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpError || id != 13 {
		t.Fatalf("op %d id %d, want OpError id 13", op, id)
	}
	code, msg, err := DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != ErrOverloaded || msg != "budget exhausted" {
		t.Fatalf("decoded %v %q", code, msg)
	}
	if code.String() != "OVERLOADED" {
		t.Fatalf("ErrOverloaded renders %q", code.String())
	}
	if ErrUnavailable.String() != "UNAVAILABLE" {
		t.Fatalf("ErrUnavailable renders %q", ErrUnavailable.String())
	}
	if _, _, err := DecodeError([]byte{1}); err == nil {
		t.Fatal("1-byte error payload accepted")
	}
}

func TestReadFrameLimitsAndTruncation(t *testing.T) {
	frame := AppendFrame(nil, OpPing, 5, nil)
	op, id, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil || op != OpPing || id != 5 || len(payload) != 0 {
		t.Fatalf("ping frame: op %d id %d payload %d err %v", op, id, len(payload), err)
	}

	// Oversized length field: rejected before any body read.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)
	if _, _, _, _, err := ReadFrame(bytes.NewReader(huge), nil, 1<<20); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame: err = %v", err)
	}
	// A frame over a custom (small) limit is rejected even when well-formed.
	big := AppendFrame(nil, OpMetricsResp, 1, make([]byte, 256))
	if _, _, _, _, err := ReadFrame(bytes.NewReader(big), nil, 64); err == nil {
		t.Fatal("frame above custom limit accepted")
	}
	// Length below the op+id minimum: the stream cannot be resynced.
	short := binary.LittleEndian.AppendUint32(nil, 3)
	if _, _, _, _, err := ReadFrame(bytes.NewReader(append(short, 0, 0, 0)), nil, 0); err == nil {
		t.Fatal("sub-minimum frame length accepted")
	}
	// Truncated body: io error, not a short parse.
	if _, _, _, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-4]), nil, 0); err == nil {
		t.Fatal("truncated body accepted")
	}
	// Truncated header maps to EOF-ish errors the caller can distinguish.
	if _, _, _, _, err := ReadFrame(bytes.NewReader(frame[:2]), nil, 0); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, _, _, _, err := ReadFrame(bytes.NewReader(nil), nil, 0); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestPipelinedStream decodes several back-to-back frames from one stream
// through a single reused buffer — the reader-loop shape both endpoints
// use.
func TestPipelinedStream(t *testing.T) {
	g := testGeom
	perTable := [][]int{{1, 2}, {3, 4}, {5, 6}}
	var stream []byte
	stream = AppendEmbed(stream, 1, 0, perTable, 1, g.Reduction)
	stream = AppendFrame(stream, OpPing, 2, nil)
	stream = AppendUpdate(stream, 3, 0, []Update{{Table: 0, Rows: []int{1}, Grads: seq(g.Dim)}})
	stream = AppendError(stream, 4, ErrShuttingDown, "drain")

	r := bytes.NewReader(stream)
	var buf []byte
	wantOps := []Op{OpEmbed, OpPing, OpUpdate, OpError}
	for i, want := range wantOps {
		var op Op
		var id uint64
		var err error
		op, id, _, buf, err = ReadFrame(r, buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if op != want || id != uint64(i+1) {
			t.Fatalf("frame %d: op %d id %d, want op %d id %d", i, op, id, want, i+1)
		}
	}
	if _, _, _, _, err := ReadFrame(r, buf, 0); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

// seq returns n distinct float32 values.
func seq(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i)*0.25 - 1
	}
	return out
}
