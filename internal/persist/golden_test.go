package persist_test

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tensordimm/internal/persist"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
)

// TestGoldenWALRecord pins the exact bytes of one WAL record: the CRC-32C
// of the frame body, then the wire SYNC frame (header, sequence number,
// entry count, and the entry: table, row count, rows, values). A WAL
// written before a codec refactor must replay after it, so no byte may
// move.
func TestGoldenWALRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := persist.Open(persist.Config{Dir: dir, Dim: 2, LocalRows: 16, MaxRowsPerEntry: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	grads, err := tensor.FromSlice([]float32{0.25, -1, 3, 0.5}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(runtime.TableUpdate{Table: 0, Rows: []int{3, 15}, Grads: grads}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(persist.ShardDir(dir, 0), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	const golden = "7e6d3f76 | 33000000 0a 0000000000000000 | 0000000000000000 0100" +
		" | 00000000 02000000 03000000 0f000000 0000803e 000080bf 00004040 0000003f"
	want, err := hex.DecodeString(strings.NewReplacer(" ", "", "|", "").Replace(golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL record:\n got %x\nwant %x", got, want)
	}
}

// goldenHex decodes a golden byte string written with spaces and "|"
// separators for reading.
func goldenHex(t *testing.T, golden string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.NewReplacer(" ", "", "|", "").Replace(golden))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenSnapshotFile pins the exact bytes of a snapshot file — magic
// 0x5444534e ("TDSN"), dim, local rows, sequence, the row-major values,
// and the CRC-32C of everything before it — and that a reopened log adopts
// it. A snapshot written before a refactor must load after it.
func TestGoldenSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	cfg := persist.Config{Dir: dir, Dim: 2, LocalRows: 2, MaxRowsPerEntry: 2}
	l, err := persist.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grads, err := tensor.FromSlice([]float32{1, 2}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(runtime.TableUpdate{Table: 0, Rows: []int{1}, Grads: grads}); err != nil {
		t.Fatal(err)
	}
	rows := []float32{0.25, -1, 3, 0.5}
	if err := l.InstallSnapshot(1, append([]float32(nil), rows...)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := os.ReadFile(filepath.Join(persist.ShardDir(dir, 0), "snap-00000000000000000001.dat"))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenHex(t, "4e534454 | 02000000 | 0200000000000000 | 0100000000000000"+
		" | 0000803e 000080bf 00004040 0000003f | e58c1169")
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot file:\n got %x\nwant %x", got, want)
	}
	l, err = persist.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if seq, back, ok := l.Snapshot(); !ok || seq != 1 || !slices.Equal(back, rows) {
		t.Fatalf("reopened snapshot: seq %d ok %v rows %v, want seq 1 rows %v", seq, ok, back, rows)
	}
}

// TestGoldenHotRowsFile pins the exact bytes of a hot-rows file — magic
// 0x54444852 ("TDHR"), row count, the rows in saved order, and the CRC-32C
// of everything before it — and that LoadHotRows reads it back.
func TestGoldenHotRowsFile(t *testing.T) {
	dir := t.TempDir()
	rows := []int{7, 0, 300}
	if err := persist.SaveHotRows(dir, 3, rows); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(persist.ShardDir(dir, 3), "hotrows.dat"))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenHex(t, "52484454 | 03000000 | 07000000 00000000 2c010000 | 8ad63fe5")
	if !bytes.Equal(got, want) {
		t.Fatalf("hot-rows file:\n got %x\nwant %x", got, want)
	}
	back, err := persist.LoadHotRows(dir, 3)
	if err != nil || !slices.Equal(back, rows) {
		t.Fatalf("LoadHotRows = %v, %v; want %v", back, err, rows)
	}
}
