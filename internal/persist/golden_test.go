package persist_test

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
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
