package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// hotMagic opens a hot-rows file: "TDHR" (TensorDIMM hot rows).
const hotMagic = 0x54444852

// SaveHotRows persists a shard's hot-row list (flat local row indices, in
// the order given) to <dir>/shard-NNN/hotrows.dat, written tmp + fsync +
// rename so a crash never leaves a half-written file. An empty rows list
// removes the file.
func SaveHotRows(dir string, shard int, rows []int) error {
	sd := ShardDir(dir, shard)
	path := filepath.Join(sd, "hotrows.dat")
	if len(rows) == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("persist: shard %d: hot rows: %w", shard, err)
		}
		return nil
	}
	if err := os.MkdirAll(sd, 0o755); err != nil {
		return fmt.Errorf("persist: shard %d: hot rows: %w", shard, err)
	}
	buf := make([]byte, 0, 4+4+4*len(rows)+4)
	buf = binary.LittleEndian.AppendUint32(buf, hotMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	for _, r := range rows {
		if r < 0 {
			return fmt.Errorf("persist: shard %d: hot row index %d is negative", shard, r)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	if err := writeSynced(filepath.Join(sd, "hotrows.tmp"), path, buf); err != nil {
		return fmt.Errorf("persist: shard %d: hot rows: %w", shard, err)
	}
	return nil
}

// LoadHotRows reads a shard's persisted hot-row list, in saved order. A
// missing, truncated or corrupt file yields (nil, nil): pre-warming is
// advisory, so a cold start is the correct fallback, never a boot
// failure. Row indices are not range-checked here — the cache warmer
// validates them against its own geometry.
func LoadHotRows(dir string, shard int) ([]int, error) {
	buf, err := os.ReadFile(filepath.Join(ShardDir(dir, shard), "hotrows.dat"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: shard %d: hot rows: %w", shard, err)
	}
	if len(buf) < 4+4+4 || binary.LittleEndian.Uint32(buf) != hotMagic || !checksummed(buf) {
		return nil, nil
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	if n <= 0 || len(buf) != 4+4+4*n+4 {
		return nil, nil
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = int(binary.LittleEndian.Uint32(buf[8+4*i:]))
	}
	return rows, nil
}
