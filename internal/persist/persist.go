// Package persist is the durability plane of the replica router: a
// per-shard append-only write-ahead log (WAL) of sequenced sub-updates
// plus periodic full-table snapshots, with log trimming once a snapshot
// covers a prefix. It fixes the two failure modes of an in-memory update
// log — unbounded growth under a long-running writer, and total loss of
// the catch-up history on restart.
//
// On-disk layout. Each shard owns one directory, <dir>/shard-NNN/:
//
//	wal.log        append-only record stream (see below)
//	snap-<seq>.dat latest full-table snapshot, absolute values at seq
//	hotrows.dat    persisted hot-row top-K for cache pre-warming
//
// WAL record format. One record per appended sub-update:
//
//	[4 B crc32c][complete wire OpSync frame]
//
// where the frame is exactly what wire.AppendSync produces — the entry's
// sequence number is the SYNC sequence, so log positions and replica
// catch-up positions are the same number — and the checksum (CRC-32
// Castagnoli) covers the frame body (everything after the frame's length
// prefix). Package wire owns the layout: the log encodes and decodes
// records with its SYNC codec and bounds a record at replay by its frame
// size (Geometry.UpdateFrameBytes), so no size is derived here. Each
// record is written with a single write call before the update fans out
// to any replica, so on a crash the log is always a superset of what any
// replica applied; at worst the final record is torn. Recovery scans the
// log and truncates at the first bad record — short read, checksum
// mismatch, or undecodable body — which by the single-writer/single-write
// discipline can only be the torn tail.
//
// Snapshots are absolute table state (not compacted deltas: float
// accumulation is order-sensitive, so replaying "merged" gradients would
// break the bit-identity contract). A snapshot at sequence S makes every
// record with seq < S dead; InstallSnapshot persists the snapshot
// (tmp + fsync + rename), deletes older snapshot files, truncates the WAL
// to empty, and drops the in-memory tail — bounding both disk and memory
// to one snapshot interval of records. Boot replays WAL-tail-over-
// snapshot: records the latest snapshot already covers are skipped
// (a crash between the snapshot rename and the WAL truncate leaves such
// a prefix), and a sequence gap anywhere else is a hard error.
//
// Durability scope. Appends are single write calls without per-record
// fsync: the log survives process crashes (SIGKILL included), which is
// the failure mode the router's restart contract covers. Surviving a
// whole-machine power loss would additionally need O_SYNC appends.
// Snapshot and hot-row files are fsynced before rename, so they are
// never observed half-written.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// DefaultSnapshotEvery is the snapshot interval (in appended entries) a
// zero Config.SnapshotEvery selects.
const DefaultSnapshotEvery = 256

// castagnoli is the CRC-32C table shared by every record checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Config sizes one shard's log. Dim, LocalRows and MaxRowsPerEntry
// describe the shard's flat gather-only table — exactly the geometry the
// shard's replicas announce — and bound what replay will accept.
type Config struct {
	// Dir is the durability root. Every shard of one router shares it;
	// the shard's files live in Dir/shard-NNN/. Empty selects volatile
	// mode: no files, but the same snapshot-based trimming, so memory
	// stays bounded even without durability.
	Dir string
	// Shard is the shard index, naming the per-shard directory.
	Shard int
	// Dim is the embedding dimension of the shard's rows.
	Dim int
	// LocalRows is the shard's flat table height; a snapshot holds
	// exactly LocalRows x Dim values.
	LocalRows int
	// MaxRowsPerEntry caps one entry's row count, bounding record size
	// during replay (the shard's sub-batch cap, Placement.MaxSub).
	MaxRowsPerEntry int
	// SnapshotEvery is how many appended entries trigger NeedSnapshot.
	// Zero selects DefaultSnapshotEvery; negative is invalid.
	SnapshotEvery int
}

// ShardLog is one shard's durable update log: the entries between the
// latest snapshot and the head, with the snapshot itself retained in
// memory for replica restores. Base, Head and WALBytes are lock-free and
// safe from any goroutine; the other methods are not safe for concurrent
// use, and the router serializes them under its per-shard update lock.
type ShardLog struct {
	cfg  Config
	dir  string // shard directory, "" in volatile mode
	geom wire.Geometry

	base atomic.Uint64 // sequence of the first tail entry (= snapshot seq), <= head
	head atomic.Uint64 // next sequence to assign; base and head only grow
	tail []runtime.TableUpdate

	haveSnap bool
	snapRows []float32 // LocalRows x Dim absolute values at base

	wal      *os.File     // nil in volatile mode
	walBytes atomic.Int64 // WAL file size
	broken   error        // first unrecoverable WAL write failure, sticky

	encBuf  []byte // reused record encode buffer
	snapBuf []byte // reused snapshot file encode buffer (durable mode)
	wu      [1]wire.Update
	scratch wire.UpdateScratch

	// Durability counters, atomic because the telemetry plane reads them
	// from scrape goroutines while the owner mutates the log under its
	// own lock (see Instrument).
	appends       atomic.Uint64 // WAL/tail appends accepted
	snapInstalls  atomic.Uint64 // snapshots installed (log trims)
	replayEntries atomic.Uint64 // WAL entries replayed at boot
}

// Instrument registers the log's durability counters on a telemetry
// registry (labels distinguish shards). Only the atomic counters are
// registered here; size gauges (WAL bytes, retained tail) are registered
// by the log's owner, summed across its shards from the lock-free Base,
// Head and WALBytes.
func (l *ShardLog) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.Counter("tensordimm_persist_appends_total", "update records appended to the WAL and tail", l.appends.Load, labels...)
	reg.Counter("tensordimm_persist_snapshots_total", "snapshots installed, trimming the log", l.snapInstalls.Load, labels...)
	reg.Counter("tensordimm_persist_replayed_total", "WAL entries replayed over the boot snapshot", l.replayEntries.Load, labels...)
}

// ShardDir returns the directory shard s's files live in under dir.
func ShardDir(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", s))
}

// Open validates cfg, creates the shard directory if needed, loads the
// latest valid snapshot, and replays the WAL tail over it (truncating a
// torn final record). With an empty Dir it returns an empty volatile log.
func Open(cfg Config) (*ShardLog, error) {
	if cfg.Dim <= 0 || cfg.LocalRows <= 0 || cfg.MaxRowsPerEntry <= 0 {
		return nil, fmt.Errorf("persist: shard %d: geometry (dim %d, rows %d, max rows/entry %d) must be positive",
			cfg.Shard, cfg.Dim, cfg.LocalRows, cfg.MaxRowsPerEntry)
	}
	if cfg.Shard < 0 {
		return nil, fmt.Errorf("persist: shard index %d is negative", cfg.Shard)
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("persist: shard %d: SnapshotEvery %d is negative (use 0 for the default)",
			cfg.Shard, cfg.SnapshotEvery)
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	l := &ShardLog{
		cfg: cfg,
		geom: wire.Geometry{
			Tables:    1,
			Reduction: 1,
			Dim:       cfg.Dim,
			TableRows: cfg.LocalRows,
			MaxBatch:  cfg.MaxRowsPerEntry,
		},
	}
	if cfg.Dir == "" {
		return l, nil
	}
	l.dir = ShardDir(cfg.Dir, cfg.Shard)
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: shard %d: %w", cfg.Shard, err)
	}
	if err := l.loadSnapshot(); err != nil {
		return nil, err
	}
	l.head.Store(l.base.Load())
	f, err := os.OpenFile(filepath.Join(l.dir, "wal.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: shard %d: %w", cfg.Shard, err)
	}
	l.wal = f
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Base returns the sequence number of the first retained entry: every
// entry below it is covered by the snapshot, and a replica behind it must
// be restored from the snapshot before replay can continue.
func (l *ShardLog) Base() uint64 { return l.base.Load() }

// Head returns the next sequence number to assign — the count of entries
// ever appended (or covered by the boot snapshot).
func (l *ShardLog) Head() uint64 { return l.head.Load() }

// WALBytes returns the current WAL file size (0 in volatile mode) — the
// quantity the soak test pins as bounded.
func (l *ShardLog) WALBytes() int64 { return l.walBytes.Load() }

// Entries returns the retained entries from sequence `from` (which must
// be within [Base, Head]) to the head. The slice aliases the log's tail
// and is valid until the next Append or InstallSnapshot.
func (l *ShardLog) Entries(from uint64) []runtime.TableUpdate {
	base := l.base.Load()
	if from < base || from > l.head.Load() {
		return nil
	}
	return l.tail[from-base:]
}

// NeedSnapshot reports whether the retained tail has reached the
// snapshot interval, so the owner should scrape a snapshot and install
// it to trim the log.
func (l *ShardLog) NeedSnapshot() bool {
	return l.head.Load()-l.base.Load() >= uint64(l.cfg.SnapshotEvery)
}

// Snapshot returns the retained snapshot (sequence and LocalRows x Dim
// absolute values), ok = false when none has been installed or loaded.
// The slice is owned by the log; callers must not mutate it.
func (l *ShardLog) Snapshot() (seq uint64, rows []float32, ok bool) {
	return l.base.Load(), l.snapRows, l.haveSnap
}

// Append assigns the update the next sequence number, writes its WAL
// record (one write call — callers fan the entry out to replicas only
// after Append returns), and retains it in the tail. The log takes
// ownership of up's Rows and Grads. A failed durable write leaves the
// log exactly as before the call; if the partial record cannot be
// truncated away the log turns sticky-broken, failing every later
// Append, because appending past a torn middle record would corrupt
// recovery.
func (l *ShardLog) Append(up runtime.TableUpdate) error {
	if l.broken != nil {
		return l.broken
	}
	if l.wal != nil {
		l.wu[0] = wire.Update{Table: up.Table, Rows: up.Rows, Grads: up.Grads.Data()}
		l.encBuf = append(l.encBuf[:0], 0, 0, 0, 0) // crc placeholder
		l.encBuf = wire.AppendSync(l.encBuf, 0, l.head.Load(), l.wu[:])
		l.wu[0] = wire.Update{}
		// The checksum covers the frame body: everything after the
		// frame's 4-byte length prefix.
		binary.LittleEndian.PutUint32(l.encBuf, crc32.Checksum(l.encBuf[8:], castagnoli))
		if _, err := l.wal.Write(l.encBuf); err != nil {
			if terr := l.wal.Truncate(l.walBytes.Load()); terr != nil {
				l.broken = fmt.Errorf("persist: shard %d: WAL unrecoverable after failed append (%v): %w",
					l.cfg.Shard, err, terr)
				return l.broken
			}
			if _, serr := l.wal.Seek(l.walBytes.Load(), io.SeekStart); serr != nil {
				l.broken = fmt.Errorf("persist: shard %d: WAL unrecoverable after failed append (%v): %w",
					l.cfg.Shard, err, serr)
				return l.broken
			}
			return fmt.Errorf("persist: shard %d: WAL append: %w", l.cfg.Shard, err)
		}
		l.walBytes.Add(int64(len(l.encBuf)))
	}
	l.tail = append(l.tail, up)
	l.head.Add(1)
	l.appends.Add(1)
	return nil
}

// InstallSnapshot replaces the log's prefix with an absolute snapshot of
// the whole shard table taken at sequence seq, which must equal Head()
// (snapshots are scraped with the update lock held, so the state is
// exactly the log head). The log takes ownership of rows and lets go of
// the table it retained before, so an owner that fetched that one with
// Snapshot beforehand may scrape the next snapshot into it instead of
// allocating a table per install. In durable mode the snapshot is written
// tmp + fsync + rename, older snapshot files are deleted, and the WAL is
// truncated to empty; in both modes the in-memory tail is dropped, which is
// what bounds the log.
func (l *ShardLog) InstallSnapshot(seq uint64, rows []float32) error {
	if head := l.head.Load(); seq != head {
		return fmt.Errorf("persist: shard %d: snapshot at seq %d, log head is %d — snapshots must be taken at the head",
			l.cfg.Shard, seq, head)
	}
	if len(rows) != l.cfg.LocalRows*l.cfg.Dim {
		return fmt.Errorf("persist: shard %d: snapshot holds %d values, want %d (%d rows x dim %d)",
			l.cfg.Shard, len(rows), l.cfg.LocalRows*l.cfg.Dim, l.cfg.LocalRows, l.cfg.Dim)
	}
	if l.wal != nil {
		if err := l.writeSnapshot(seq, rows); err != nil {
			return err
		}
		if err := l.wal.Truncate(0); err != nil {
			return fmt.Errorf("persist: shard %d: trimming WAL: %w", l.cfg.Shard, err)
		}
		if _, err := l.wal.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("persist: shard %d: trimming WAL: %w", l.cfg.Shard, err)
		}
		l.walBytes.Store(0)
	}
	l.base.Store(seq)
	l.tail = l.tail[:0]
	l.snapRows = rows
	l.haveSnap = true
	l.snapInstalls.Add(1)
	return nil
}

// Close closes the WAL file handle. The log must not be used afterwards.
func (l *ShardLog) Close() error {
	if l.wal == nil {
		return nil
	}
	err := l.wal.Close()
	l.wal = nil
	return err
}

// snapMagic opens a snapshot file: "TDSN" (TensorDIMM snapshot).
const snapMagic = 0x5444534e

// snapName renders the snapshot filename for seq, zero-padded so the
// lexical order of directory listings is the numeric order.
func snapName(seq uint64) string {
	return fmt.Sprintf("snap-%020d.dat", seq)
}

// snapSeq parses a snapshot filename, ok = false for other files.
func snapSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".dat") {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name, "snap-%d.dat", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// writeSnapshot persists rows at seq: tmp file, fsync, rename, then
// delete every older snapshot file. Every snapshot of a shard has the same
// size, so the file image is encoded into one buffer kept on the log.
func (l *ShardLog) writeSnapshot(seq uint64, rows []float32) error {
	if l.snapBuf == nil {
		l.snapBuf = make([]byte, 0, 4+4+8+8+4*len(rows)+4)
	}
	buf := binary.LittleEndian.AppendUint32(l.snapBuf[:0], snapMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.cfg.Dim))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.cfg.LocalRows))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = wire.AppendFloat32s(buf, rows)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	l.snapBuf = buf

	if err := writeSynced(filepath.Join(l.dir, "snap.tmp"), filepath.Join(l.dir, snapName(seq)), buf); err != nil {
		return fmt.Errorf("persist: shard %d: snapshot: %w", l.cfg.Shard, err)
	}
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil // the snapshot landed; stale-file cleanup is advisory
	}
	for _, e := range ents {
		if s, ok := snapSeq(e.Name()); ok && s != seq {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	return nil
}

// writeSynced writes buf to path so that a crash never leaves it
// half-written: into tmp, fsynced and closed, then renamed over path. tmp
// is removed on failure.
func writeSynced(tmp, path string, buf []byte) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// checksummed reports whether buf ends in the CRC-32C of the bytes before
// it: the trailer of every snapshot and hot-rows file.
func checksummed(buf []byte) bool {
	n := len(buf) - 4
	return n >= 0 && crc32.Checksum(buf[:n], castagnoli) == binary.LittleEndian.Uint32(buf[n:])
}

// loadSnapshot finds the newest snapshot file that validates, adopts its
// sequence as the log base, and deletes every other snapshot file (a
// newer-but-corrupt snapshot can only be a torn install whose WAL records
// were not yet trimmed, so falling back to an older one stays correct).
func (l *ShardLog) loadSnapshot() error {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("persist: shard %d: %w", l.cfg.Shard, err)
	}
	var seqs []uint64
	for _, e := range ents {
		if s, ok := snapSeq(e.Name()); ok {
			seqs = append(seqs, s)
		}
	}
	os.Remove(filepath.Join(l.dir, "snap.tmp"))
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		rows, ok := l.readSnapshot(seq)
		if !ok {
			os.Remove(filepath.Join(l.dir, snapName(seq)))
			continue
		}
		l.base.Store(seq)
		l.snapRows = rows
		l.haveSnap = true
		for _, s := range seqs {
			if s != seq {
				os.Remove(filepath.Join(l.dir, snapName(s)))
			}
		}
		return nil
	}
	return nil
}

// readSnapshot loads and validates one snapshot file.
func (l *ShardLog) readSnapshot(seq uint64) ([]float32, bool) {
	buf, err := os.ReadFile(filepath.Join(l.dir, snapName(seq)))
	if err != nil {
		return nil, false
	}
	want := 4 + 4 + 8 + 8 + 4*l.cfg.LocalRows*l.cfg.Dim + 4
	if len(buf) != want || !checksummed(buf) {
		return nil, false
	}
	if binary.LittleEndian.Uint32(buf) != snapMagic ||
		int(binary.LittleEndian.Uint32(buf[4:])) != l.cfg.Dim ||
		binary.LittleEndian.Uint64(buf[8:]) != uint64(l.cfg.LocalRows) ||
		binary.LittleEndian.Uint64(buf[16:]) != seq {
		return nil, false
	}
	rows := make([]float32, l.cfg.LocalRows*l.cfg.Dim)
	wire.DecodeFloat32s(rows, buf[24:len(buf)-4])
	return rows, true
}

// replay scans the WAL from the start, rebuilding the in-memory tail.
// Records the snapshot already covers are skipped; the first record that
// fails to read, checksum or decode is treated as the torn tail and the
// file is truncated there; a sequence gap among valid records is a hard
// error (it cannot come from a torn write).
func (l *ShardLog) replay() error {
	if _, err := l.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("persist: shard %d: %w", l.cfg.Shard, err)
	}
	var (
		off    int64
		crcBuf [4]byte
		buf    []byte
	)
	for {
		if _, err := io.ReadFull(l.wal, crcBuf[:]); err != nil {
			if err == io.EOF {
				break // clean end of log
			}
			return l.truncateAt(off) // torn mid-crc
		}
		// A valid record's frame is at most one SYNC entry at the row cap.
		op, _, payload, nbuf, err := wire.ReadFrame(l.wal, buf, l.geom.UpdateFrameBytes(wire.OpSync, 1, l.cfg.MaxRowsPerEntry))
		buf = nbuf
		if err != nil || op != wire.OpSync {
			return l.truncateAt(off)
		}
		if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(crcBuf[:]) {
			return l.truncateAt(off)
		}
		seq, ups, err := wire.DecodeSync(payload, l.geom, &l.scratch)
		if err != nil || len(ups) != 1 {
			return l.truncateAt(off)
		}
		off += 4 + 4 + int64(len(buf))
		if seq < l.base.Load() {
			continue // covered by the snapshot; trim raced the crash
		}
		if head := l.head.Load(); seq != head {
			return fmt.Errorf("persist: shard %d: WAL record at seq %d, want %d — the log belongs to a different history",
				l.cfg.Shard, seq, head)
		}
		rows := make([]int, len(ups[0].Rows))
		copy(rows, ups[0].Rows)
		grads := tensor.New(len(rows), l.cfg.Dim)
		copy(grads.Data(), ups[0].Grads)
		l.tail = append(l.tail, runtime.TableUpdate{Table: ups[0].Table, Rows: rows, Grads: grads})
		l.head.Add(1)
		l.replayEntries.Add(1)
	}
	l.walBytes.Store(off)
	if _, err := l.wal.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("persist: shard %d: %w", l.cfg.Shard, err)
	}
	return nil
}

// truncateAt cuts the torn tail off at the last good record boundary and
// positions the file for appending.
func (l *ShardLog) truncateAt(off int64) error {
	if err := l.wal.Truncate(off); err != nil {
		return fmt.Errorf("persist: shard %d: truncating torn WAL tail: %w", l.cfg.Shard, err)
	}
	if _, err := l.wal.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("persist: shard %d: %w", l.cfg.Shard, err)
	}
	l.walBytes.Store(off)
	return nil
}
