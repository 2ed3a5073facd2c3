// Package wire defines the binary network protocol of the serving plane:
// the frame format a netclient.Client and a netserve.Server exchange over
// TCP. It is encoding plus one connection's send side (Writer, the BATCH
// group commit) — no sockets, no goroutines — so both endpoints and the
// protocol tests share exactly one implementation of the layout and of the
// coalescing policy.
//
// A connection opens with a fixed-size handshake: the client sends magic +
// version + its frame-size limit, the server answers magic + version + a
// Hello — the model geometry (tables, reduction, dim, max batch), the
// server's replica role, its update sequence number, and its own
// frame-size limit — which is everything a client needs to size requests,
// size destination buffers, cap its coalesced BATCH frames, and (for a
// replica router) decide how many logged updates the server missed. After
// the handshake the
// connection carries length-prefixed frames in both directions:
//
//	[4 B length][1 B op][8 B request id][payload ...]
//
// where length counts everything after the length field itself (so a frame
// occupies 4 + length bytes on the wire). Request ids are chosen by the
// client and echoed verbatim by the server, which is what lets a client
// pipeline many requests on one connection and accept responses out of
// order. All integers are little-endian; embedding values travel as raw
// IEEE-754 float32 bits.
//
// This package is the only code that knows the layout. Other packages size
// frames with Geometry.EmbedFrameBytes, Geometry.UpdateFrameBytes and
// Geometry.MaxRestoreRows, stamp and expire deadlines with Budget, and map
// a backend failure to its error code with CodeOf; UPDATE, SYNC and
// RESTORE share one update-entry encoder and one decoder.
//
// Every encoder appends to a caller-provided buffer and every decoder
// parses into caller-provided storage, so both endpoints can run their
// steady-state request paths without heap allocations (see
// ARCHITECTURE.md, "Memory discipline"). Decoders validate sizes before
// touching payload bytes: a truncated, corrupt or oversized frame yields
// an error, never a panic or a silent misparse.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
	"unsafe"
)

// Magic opens both handshake messages: "TDNP" (TensorDIMM network
// protocol). A connection that does not start with it is not speaking this
// protocol and is closed immediately.
const Magic = 0x54444e50

// Version is the protocol revision. The handshake rejects a peer speaking
// a different revision instead of guessing at frame layouts. Revision 2
// extended the server hello with the replica role and update sequence
// number and added the SYNC replica catch-up op. Revision 3 added the
// BATCH coalescing super-frame and a frame-size announcement in both
// handshake directions, so each endpoint can coalesce responses without
// ever exceeding what its peer is willing to read. Revision 4 added the
// RESTORE snapshot-install op, which lets a router reseat a lagging
// replica from a durable snapshot instead of replaying from sequence 0.
// Revision 5 opened the EMBED and UPDATE payloads with a per-request
// deadline budget (uint32 microseconds, 0 = none) and added the
// DEADLINE_EXCEEDED error code, so a server can shed already-expired
// requests before executing doomed work. Revision 6 made METRICS
// responses carry a versioned machine-parseable telemetry snapshot
// section ahead of a human text report. Revision 7 dropped the text
// report: a METRICS response is the snapshot alone
// (telemetry.DecodeWirePayload), which a client renders or asserts on.
// The handshake layout itself is unchanged across revisions 2-7 — only
// the version number moves — so a version mismatch is always detected
// cleanly at connect time, before a peer can misread a payload.
const Version = 7

// DefaultMaxFrameBytes bounds one frame's wire size when a Config leaves
// the limit zero: large enough for a maximal update batch against the
// biggest benchmark geometry, small enough that a corrupt length field
// cannot make an endpoint allocate gigabytes.
const DefaultMaxFrameBytes = 16 << 20

// HandshakeTimeout bounds a connection's whole handshake at each end, from
// connect (or accept) to both hellos exchanged: a peer that goes silent
// mid-handshake costs the other end this long, never more.
const HandshakeTimeout = 5 * time.Second

// ReadBufBytes sizes the buffered reader each end puts in front of a
// connection after the handshake, so one read syscall pulls in many frames.
const ReadBufBytes = 64 << 10

// HeaderBytes is the fixed per-frame header: the 4-byte length prefix plus
// the 1-byte op and 8-byte request id the length covers.
const HeaderBytes = 4 + 1 + 8

// The fixed prefixes of an OpEmbed payload (the budget and the uint32
// batch) and of an update entry (the uint32 table and row count).
const (
	embedHeadBytes = 4 + 4
	entryHeadBytes = 4 + 4
)

// entryFrameHead is the fixed payload prefix ahead of the update entries of
// each op that carries them: UPDATE's budget and uint16 entry count, SYNC's
// uint64 sequence number and entry count, RESTORE's sequence number and
// commit byte (a RESTORE carries exactly one entry, so no count).
var entryFrameHead = [...]int{OpUpdate: 4 + 2, OpSync: 8 + 2, OpRestore: 8 + 1}

// BatchHeaderBytes is the fixed prefix of an OpBatch super-frame: the
// standard frame header plus the uint16 sub-frame count. A Writer
// reserves exactly this much headroom at the front of its buffer so the
// header can be stamped in place without moving the packed sub-frames.
const BatchHeaderBytes = HeaderBytes + 2

// MaxBatchSubFrames bounds one OpBatch frame's sub-frame count. The cap
// keeps a corrupt count from looking plausible, and a Writer splits its
// buffer into multiple BATCH frames rather than exceed it.
const MaxBatchSubFrames = 1024

// Op identifies a frame's meaning.
type Op uint8

// The frame ops. Requests flow client -> server, responses server ->
// client with the request's id echoed.
const (
	// OpEmbed requests a pooled embedding: payload is a uint32 deadline
	// budget (microseconds, 0 = none), a uint32 batch, then tables x batch
	// x reduction uint32 row indices.
	OpEmbed Op = 1
	// OpEmbedResp answers OpEmbed: payload is batch x tables x dim raw
	// float32 values.
	OpEmbedResp Op = 2
	// OpUpdate requests a gradient-update batch: payload is a uint32
	// deadline budget (microseconds, 0 = none), a uint16 update count, then
	// per update a uint32 table, uint32 row count, the rows, and rows x dim
	// float32 gradients.
	OpUpdate Op = 3
	// OpUpdateResp answers OpUpdate with an empty payload.
	OpUpdateResp Op = 4
	// OpMetrics requests the server's telemetry snapshot; empty payload.
	OpMetrics Op = 5
	// OpMetricsResp answers OpMetrics: payload is the snapshot magic
	// "TDMS1\n" followed by the registry's versioned JSON snapshot
	// (telemetry.EncodeWirePayload) and nothing else.
	OpMetricsResp Op = 6
	// OpPing is a liveness probe; empty payload.
	OpPing Op = 7
	// OpPong answers OpPing with an empty payload.
	OpPong Op = 8
	// OpError answers any request that failed: payload is a uint16 ErrCode
	// followed by a UTF-8 message.
	OpError Op = 9
	// OpSync is a sequenced gradient update — the replica write/catch-up
	// path: payload is a uint64 sequence number followed by an OpUpdate
	// payload's count and entries (no budget). The server applies it only
	// when the sequence number equals its own update counter, acknowledges
	// without reapplying when it is below (the update already landed before
	// a connection died), and rejects it as BAD_REQUEST when it is above
	// (the sender skipped updates). That guard makes replaying a router's
	// update log after a replica reconnect exactly-once.
	OpSync Op = 10
	// OpSyncResp answers OpSync: payload is the server's uint64 update
	// counter after the frame was absorbed.
	OpSyncResp Op = 11
	// OpBatch is the coalescing super-frame: payload is a uint16 sub-frame
	// count followed by that many complete frames (each with its own
	// length prefix, op, and request id), packed back to back. Both
	// directions use it — a client packs concurrent requests into one
	// write, a server packs completed responses — so one syscall is
	// amortized over a micro-batch. Sub-frames are dispatched exactly as
	// if they had arrived individually (each sub-request is admitted,
	// executed, and answered under its own id); a BATCH may not nest.
	OpBatch Op = 12
	// OpRestore installs one chunk of an absolute table snapshot on a
	// replica: payload is a uint64 snapshot sequence number, a commit byte,
	// a uint32 table, a uint32 row count, the rows, and rows x dim float32
	// absolute values (not gradients — the rows are overwritten, not
	// accumulated). The router streams a snapshot as a chunk sequence; only
	// the final chunk carries commit = 1, which moves the server's update
	// counter to the snapshot sequence. A snapshot older than the server's
	// applied state is rejected as BAD_REQUEST, so a restore can never
	// travel backwards.
	OpRestore Op = 13
	// OpRestoreResp answers OpRestore: payload is the server's uint64
	// update counter after the chunk was absorbed (unchanged until the
	// commit chunk lands).
	OpRestoreResp Op = 14
)

// ErrCode classifies an OpError frame.
type ErrCode uint16

// The error codes an OpError frame carries.
const (
	// ErrBadRequest: the request was malformed or failed validation
	// (geometry mismatch, index out of range). Retrying is pointless.
	ErrBadRequest ErrCode = 1
	// ErrOverloaded: the server's admission budget was exhausted and the
	// request was shed without executing. Retrying after backoff is safe.
	ErrOverloaded ErrCode = 2
	// ErrShuttingDown: the server is draining and accepts no new work.
	ErrShuttingDown ErrCode = 3
	// ErrInternal: the backend failed executing the request.
	ErrInternal ErrCode = 4
	// ErrUnavailable: no endpoint can serve the request — the code a
	// replica router reports when every replica of a shard is down. It is
	// fail-fast by design: retrying immediately hits the same dead set, so
	// callers should back off until a replica rejoins.
	ErrUnavailable ErrCode = 5
	// ErrDeadlineExceeded: the request's deadline budget lapsed before the
	// server executed it, so it was shed unexecuted — the answer arrives
	// after the caller stopped caring by definition, and executing it would
	// only steal capacity from requests that can still make their
	// deadlines. Retrying with a fresh budget is safe.
	ErrDeadlineExceeded ErrCode = 6
)

// String names the code for error rendering.
func (c ErrCode) String() string {
	switch c {
	case ErrBadRequest:
		return "BAD_REQUEST"
	case ErrOverloaded:
		return "OVERLOADED"
	case ErrShuttingDown:
		return "SHUTTING_DOWN"
	case ErrInternal:
		return "INTERNAL"
	case ErrUnavailable:
		return "UNAVAILABLE"
	case ErrDeadlineExceeded:
		return "DEADLINE_EXCEEDED"
	}
	return fmt.Sprintf("ERR_%d", uint16(c))
}

// CodeOf returns the code of the error frame answering a request the
// backend failed with err: the class err (or an error it wraps) reports
// through a WireCode method — a replica router's shard outage reports
// ErrUnavailable — and ErrInternal for any other failure.
func CodeOf(err error) ErrCode {
	var coded interface{ WireCode() ErrCode }
	if errors.As(err, &coded) {
		return coded.WireCode()
	}
	return ErrInternal
}

// Budget is a request's deadline budget in its wire form: the whole
// microseconds its caller has left, 0 = no deadline. EMBED and UPDATE
// payloads open with one.
type Budget uint32

// BudgetOf converts a remaining deadline to its wire form, clamped to the
// uint32 range with a floor of 1µs for any positive d, so "has a deadline"
// survives the rounding.
func BudgetOf(d time.Duration) Budget {
	if d <= 0 {
		return 0
	}
	return Budget(min(max(d.Microseconds(), 1), math.MaxUint32))
}

// Expired reports whether a request stamped with b that arrived at arrived
// is out of budget at now. A zero budget never expires.
func (b Budget) Expired(arrived, now time.Time) bool {
	return b > 0 && now.Sub(arrived) >= time.Duration(b)*time.Microsecond
}

// Geometry is the model shape the server announces in its handshake: with
// it a client can validate and size every request and destination buffer
// without any out-of-band configuration. It is also the serving stack's one
// model-shape type: CheckRead and CheckRows are the request contract every
// entry point (runtime, serve, both routers, netclient) applies before it
// does any work.
type Geometry struct {
	// Tables is the embedding table count of the served model.
	Tables int
	// Reduction is the pooling group width (rows per sample per table).
	Reduction int
	// Dim is the embedding dimension.
	Dim int
	// TableRows is the row count of every table — the valid index range a
	// remote workload generator draws from, and the bound the decoders
	// enforce so an out-of-range index is rejected as BAD_REQUEST at the
	// protocol layer instead of deep inside the backend.
	TableRows int
	// MaxBatch is the largest per-request sample count the server accepts.
	MaxBatch int
}

// Width returns the pooled row width tables x dim — the float32 count of
// one sample's embedding output.
func (g Geometry) Width() int { return g.Tables * g.Dim }

// Validate rejects non-positive geometry fields, which would make every
// payload-size derivation nonsense.
func (g Geometry) Validate() error {
	if g.Tables <= 0 || g.Reduction <= 0 || g.Dim <= 0 || g.TableRows <= 0 || g.MaxBatch <= 0 {
		return fmt.Errorf("wire: invalid geometry %+v (all fields must be positive)", g)
	}
	return nil
}

// CheckRead is the read half of the request contract: batch is in [1,
// MaxBatch], there is one row list per table, each list holds batch x
// Reduction rows, and every row is in [0, TableRows). The tables sit back to
// back in a TensorNode's pool, so a row past its table would read the next
// one. Errors carry no package prefix; each caller wraps them with its own.
func (g Geometry) CheckRead(perTableRows [][]int, batch int) error {
	if batch <= 0 || batch > g.MaxBatch {
		return fmt.Errorf("batch %d out of range [1, %d]", batch, g.MaxBatch)
	}
	if len(perTableRows) != g.Tables {
		return fmt.Errorf("%d index lists for %d tables", len(perTableRows), g.Tables)
	}
	n := batch * g.Reduction
	for t, rows := range perTableRows {
		if len(rows) != n {
			return fmt.Errorf("table %d: %d rows for batch %d x reduction %d", t, len(rows), batch, g.Reduction)
		}
		for _, r := range rows {
			if r < 0 || r >= g.TableRows {
				return fmt.Errorf("table %d: row index %d out of range [0, %d)", t, r, g.TableRows)
			}
		}
	}
	return nil
}

// CheckRows is the write half of the request contract, shared by updates
// and snapshot restores: table is in range, rows holds 1 to MaxBatch x
// Reduction entries (one request's worth), every row is in [0, TableRows),
// and vals — the value count that rides along — is len(rows) x Dim.
func (g Geometry) CheckRows(table int, rows []int, vals int) error {
	if table < 0 || table >= g.Tables {
		return fmt.Errorf("table %d out of range [0, %d)", table, g.Tables)
	}
	if maxRows := g.MaxBatch * g.Reduction; len(rows) == 0 || len(rows) > maxRows {
		return fmt.Errorf("%d rows out of range [1, %d]", len(rows), maxRows)
	}
	for _, r := range rows {
		if r < 0 || r >= g.TableRows {
			return fmt.Errorf("table %d: row index %d out of range [0, %d)", table, r, g.TableRows)
		}
	}
	if vals != len(rows)*g.Dim {
		return fmt.Errorf("%d values for %d rows of dim %d", vals, len(rows), g.Dim)
	}
	return nil
}

// EmbedFrameBytes returns the wire sizes of an OpEmbed request frame for
// batch samples and of the OpEmbedResp frame that answers it.
func (g Geometry) EmbedFrameBytes(batch int) (req, resp int) {
	return HeaderBytes + embedHeadBytes + 4*g.Tables*batch*g.Reduction, HeaderBytes + 4*batch*g.Width()
}

// UpdateFrameBytes returns the wire size of an OpUpdate, OpSync or
// OpRestore frame (op) whose update entries (exactly one for a RESTORE)
// hold rows rows in all, so a sender can refuse a batch its peer's frame
// limit would not read before encoding it.
func (g Geometry) UpdateFrameBytes(op Op, entries, rows int) int {
	return HeaderBytes + entryFrameHead[op] + entries*entryHeadBytes + 4*rows*(1+g.Dim)
}

// MaxRestoreRows returns the largest row count one OpRestore frame may
// carry under a frame limit of limit bytes: the request contract's MaxBatch
// x Reduction, lowered to what fits the limit, and never below 1.
func (g Geometry) MaxRestoreRows(limit int) int {
	fit := (limit - g.UpdateFrameBytes(OpRestore, 1, 0)) / (4 * (1 + g.Dim))
	return max(min(g.MaxBatch*g.Reduction, fit), 1)
}

// Role is the serving role a server announces in its handshake.
type Role uint8

// The server roles.
const (
	// RoleStandalone is a self-contained serving endpoint (single node or
	// in-process cluster): clients talk to it directly.
	RoleStandalone Role = 0
	// RoleReplica is one replica of a shard behind a replica router: its
	// writes are sequenced SYNC frames from the router, and its announced
	// UpdateSeq tells a reconnecting router where catch-up replay starts.
	RoleReplica Role = 1
)

// String names the role for reports.
func (r Role) String() string {
	switch r {
	case RoleStandalone:
		return "standalone"
	case RoleReplica:
		return "replica"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// Hello is the server handshake body: the served geometry plus the
// replication state a replica router needs — the server's role and how
// many sequenced update batches it has applied — plus the server's frame
// size limit, which caps the BATCH super-frames a client may send it.
type Hello struct {
	// Geom is the served model geometry.
	Geom Geometry
	// Role is the server's serving role.
	Role Role
	// UpdateSeq counts the update batches the server has applied. A
	// replica router compares it against its own update log to replay
	// exactly the updates the server missed while disconnected.
	UpdateSeq uint64
	// MaxFrameBytes is the largest frame the server will read. A client
	// must keep its coalesced BATCH frames under it; decoders normalize an
	// unannounced (zero) limit to DefaultMaxFrameBytes.
	MaxFrameBytes int
}

// clientHelloBytes is the fixed client handshake size: magic + version +
// uint32 frame-size limit.
const clientHelloBytes = 4 + 2 + 4

// serverHelloBytes is the fixed server handshake size: magic + version +
// five uint32 geometry fields + role byte + uint64 update sequence +
// uint32 frame-size limit.
const serverHelloBytes = 4 + 2 + 5*4 + 1 + 8 + 4

// growBuf returns buf with at least n bytes of capacity (and at least the
// 64 B floor every reused wire buffer starts from), preserving nothing.
func growBuf(buf []byte, n int) []byte {
	if n < 64 {
		n = 64
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	return buf
}

// checkPreamble verifies the magic and version both hellos open with.
func checkPreamble(b []byte) error {
	if m := binary.LittleEndian.Uint32(b[0:4]); m != Magic {
		return fmt.Errorf("wire: bad magic %#x (want %#x): peer is not speaking the TensorDIMM protocol", m, uint32(Magic))
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != Version {
		return fmt.Errorf("wire: protocol version %d (want %d)", v, Version)
	}
	return nil
}

// AppendClientHello appends the client handshake to buf: magic, version,
// and the largest frame the client will read (0 announces the default),
// which caps the coalesced BATCH frames the server may answer with.
func AppendClientHello(buf []byte, maxFrameBytes int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, Magic)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	return binary.LittleEndian.AppendUint32(buf, uint32(maxFrameBytes))
}

// ReadClientHello reads and verifies a client handshake from r through the
// reused buffer buf (grown if needed and returned), so a server accepts
// connections without per-handshake heap allocations. It returns the
// client's announced frame-size limit, normalized to DefaultMaxFrameBytes
// when the client left it zero.
func ReadClientHello(r io.Reader, buf []byte) (maxFrameBytes int, _ []byte, err error) {
	buf = growBuf(buf, clientHelloBytes)
	b := buf[:clientHelloBytes]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, buf, fmt.Errorf("wire: reading client hello: %w", err)
	}
	if err := checkPreamble(b); err != nil {
		return 0, buf, err
	}
	maxFrameBytes = int(binary.LittleEndian.Uint32(b[6:10]))
	if maxFrameBytes == 0 {
		maxFrameBytes = DefaultMaxFrameBytes
	}
	return maxFrameBytes, buf, nil
}

// AppendServerHello appends the server handshake — magic, version, and the
// Hello body (geometry, role, update sequence, frame-size limit) — to buf.
func AppendServerHello(buf []byte, h Hello) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, Magic)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Geom.Tables))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Geom.Reduction))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Geom.Dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Geom.TableRows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Geom.MaxBatch))
	buf = append(buf, byte(h.Role))
	buf = binary.LittleEndian.AppendUint64(buf, h.UpdateSeq)
	return binary.LittleEndian.AppendUint32(buf, uint32(h.MaxFrameBytes))
}

// ReadServerHello reads and verifies a server handshake from r through the
// reused buffer buf (grown if needed and returned), returning the
// announced Hello with an unannounced (zero) frame-size limit normalized
// to DefaultMaxFrameBytes.
func ReadServerHello(r io.Reader, buf []byte) (Hello, []byte, error) {
	buf = growBuf(buf, serverHelloBytes)
	b := buf[:serverHelloBytes]
	if _, err := io.ReadFull(r, b); err != nil {
		return Hello{}, buf, fmt.Errorf("wire: reading server hello: %w", err)
	}
	if err := checkPreamble(b); err != nil {
		return Hello{}, buf, err
	}
	h := Hello{
		Geom: Geometry{
			Tables:    int(binary.LittleEndian.Uint32(b[6:10])),
			Reduction: int(binary.LittleEndian.Uint32(b[10:14])),
			Dim:       int(binary.LittleEndian.Uint32(b[14:18])),
			TableRows: int(binary.LittleEndian.Uint32(b[18:22])),
			MaxBatch:  int(binary.LittleEndian.Uint32(b[22:26])),
		},
		Role:          Role(b[26]),
		UpdateSeq:     binary.LittleEndian.Uint64(b[27:35]),
		MaxFrameBytes: int(binary.LittleEndian.Uint32(b[35:39])),
	}
	if err := h.Geom.Validate(); err != nil {
		return Hello{}, buf, err
	}
	if h.Role != RoleStandalone && h.Role != RoleReplica {
		return Hello{}, buf, fmt.Errorf("wire: unknown server role %d", uint8(h.Role))
	}
	if h.MaxFrameBytes == 0 {
		h.MaxFrameBytes = DefaultMaxFrameBytes
	}
	return h, buf, nil
}

// AppendFrame appends one complete frame (header + payload) to buf. It is
// the generic encoder for the empty- and opaque-payload ops (ping, pong,
// metrics, update-ack); the hot-path ops have dedicated encoders below
// that build their payloads in place.
func AppendFrame(buf []byte, op Op, id uint64, payload []byte) []byte {
	buf, lenAt := beginFrame(buf, op, id)
	return endFrame(append(buf, payload...), lenAt)
}

// beginFrame appends a frame header with a placeholder length, returning
// the offset of the length field for endFrame to patch.
func beginFrame(buf []byte, op Op, id uint64) ([]byte, int) {
	lenAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = append(buf, byte(op))
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return buf, lenAt
}

// endFrame patches the length field of the frame begun at lenAt.
func endFrame(buf []byte, lenAt int) []byte {
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	return buf
}

// AppendEmbed appends an OpEmbed request frame: `batch` samples whose
// per-table row index lists are perTableRows (exactly as the serving
// layers take them), stamped with the caller's remaining deadline budget
// (0 = no deadline). The caller must have validated the lists against the
// geometry — the encoder derives every length from batch, so a short list
// would panic, not misencode.
func AppendEmbed(buf []byte, id uint64, budget Budget, perTableRows [][]int, batch, reduction int) []byte {
	buf, lenAt := beginFrame(buf, OpEmbed, id)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(budget))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(batch))
	n := batch * reduction
	for _, rows := range perTableRows {
		for _, r := range rows[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
		}
	}
	return endFrame(buf, lenAt)
}

// DecodeEmbed parses an OpEmbed payload against the geometry, filling the
// caller's reused row storage: idx is resized (grown at most once per
// connection) to tables x batch x reduction decoded indices and rows's
// tables entries are resliced into it. Returns the decoded batch and
// deadline budget plus the (possibly regrown) buffers. Indices are
// range-checked against g.TableRows, so a malformed request is rejected
// here as BAD_REQUEST material instead of deep inside the backend.
func DecodeEmbed(payload []byte, g Geometry, rows [][]int, idx []int) (batch int, budget Budget, _ [][]int, _ []int, err error) {
	if len(payload) < embedHeadBytes {
		return 0, 0, rows, idx, fmt.Errorf("wire: embed payload %d B, want at least %d", len(payload), embedHeadBytes)
	}
	budget = Budget(binary.LittleEndian.Uint32(payload))
	batch = int(binary.LittleEndian.Uint32(payload[4:]))
	if batch <= 0 || batch > g.MaxBatch {
		return 0, 0, rows, idx, fmt.Errorf("wire: embed batch %d out of range [1, %d]", batch, g.MaxBatch)
	}
	n := batch * g.Reduction
	want := embedHeadBytes + 4*g.Tables*n
	if len(payload) != want {
		return 0, 0, rows, idx, fmt.Errorf("wire: embed payload %d B, want %d for batch %d (%d tables x reduction %d)",
			len(payload), want, batch, g.Tables, g.Reduction)
	}
	total := g.Tables * n
	if cap(idx) < total {
		idx = make([]int, total)
	}
	idx = idx[:total]
	if cap(rows) < g.Tables {
		rows = make([][]int, g.Tables)
	}
	rows = rows[:g.Tables]
	p := payload[embedHeadBytes:]
	for i := 0; i < total; i++ {
		r := int(binary.LittleEndian.Uint32(p[4*i:]))
		if r >= g.TableRows {
			return 0, 0, rows, idx, fmt.Errorf("wire: embed index %d out of range [0, %d)", r, g.TableRows)
		}
		idx[i] = r
	}
	for t := 0; t < g.Tables; t++ {
		rows[t] = idx[t*n : (t+1)*n]
	}
	return batch, budget, rows, idx, nil
}

// AppendEmbedResp appends an OpEmbedResp frame carrying vals (the pooled
// batch x tables x dim embedding values) as raw float32 bits.
func AppendEmbedResp(buf []byte, id uint64, vals []float32) []byte {
	buf, lenAt := beginFrame(buf, OpEmbedResp, id)
	buf = AppendFloat32s(buf, vals)
	return endFrame(buf, lenAt)
}

// DecodeEmbedResp parses an OpEmbedResp payload into dst, which must be
// exactly the expected result length (the client sizes it from the
// geometry before sending the request).
func DecodeEmbedResp(payload []byte, dst []float32) error {
	if len(payload) != 4*len(dst) {
		return fmt.Errorf("wire: embed response %d B, want %d (%d float32)", len(payload), 4*len(dst), len(dst))
	}
	DecodeFloat32s(dst, payload)
	return nil
}

// Update is the wire form of one table's slice of a gradient-update batch:
// Grads holds len(Rows) x dim row-major values. It mirrors
// runtime.TableUpdate without importing the runtime, so the protocol layer
// stays free of serving-stack dependencies.
type Update struct {
	// Table is the target embedding table.
	Table int
	// Rows lists the target row per gradient (duplicates accumulate in
	// order).
	Rows []int
	// Grads holds one dim-wide gradient row per entry of Rows.
	Grads []float32
}

// AppendUpdate appends an OpUpdate frame carrying ups, stamped with the
// caller's remaining deadline budget (0 = no deadline).
// Every entry's Grads must hold exactly len(Rows) x dim values, and
// len(ups) must be within MaxUpdatesPerFrame; like AppendEmbed,
// validation is the caller's job.
func AppendUpdate(buf []byte, id uint64, budget Budget, ups []Update) []byte {
	buf, lenAt := beginFrame(buf, OpUpdate, id)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(budget))
	buf = appendUpdates(buf, ups)
	return endFrame(buf, lenAt)
}

// appendUpdates appends the update-batch body (count + entries) shared by
// OpUpdate and OpSync frames.
func appendUpdates(buf []byte, ups []Update) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ups)))
	for _, up := range ups {
		buf = appendEntry(buf, up)
	}
	return buf
}

// appendEntry appends one update entry — table, row count, rows, values —
// which UPDATE and SYNC carry per update and RESTORE carries once.
func appendEntry(buf []byte, up Update) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(up.Table))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(up.Rows)))
	for _, r := range up.Rows {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	return AppendFloat32s(buf, up.Grads)
}

// decodeEntry parses the update entry at p's front, appending its rows and
// values to s's arenas, and returns it (viewing the arenas as they stand)
// with the rest of p. The row count is bounded before it sizes anything;
// the entry is then held to the request contract, Geometry.CheckRows.
func decodeEntry(p []byte, g Geometry, s *UpdateScratch) (Update, []byte, error) {
	if len(p) < entryHeadBytes {
		return Update{}, nil, fmt.Errorf("truncated entry header (%d B left)", len(p))
	}
	table := int(binary.LittleEndian.Uint32(p))
	n := int(binary.LittleEndian.Uint32(p[4:]))
	p = p[entryHeadBytes:]
	if maxRows := g.MaxBatch * g.Reduction; n > maxRows {
		return Update{}, nil, fmt.Errorf("%d rows out of range [1, %d]", n, maxRows)
	}
	if need := 4 * n * (1 + g.Dim); len(p) < need {
		return Update{}, nil, fmt.Errorf("%d B left, want %d for %d rows", len(p), need, n)
	}
	rowAt, valAt := len(s.Rows), len(s.Grads)
	for i := 0; i < n; i++ {
		s.Rows = append(s.Rows, int(binary.LittleEndian.Uint32(p[4*i:])))
	}
	p = p[4*n:]
	s.Grads = slices.Grow(s.Grads, n*g.Dim)[:valAt+n*g.Dim]
	DecodeFloat32s(s.Grads[valAt:], p)
	up := Update{Table: table, Rows: s.Rows[rowAt:], Grads: s.Grads[valAt:]}
	if err := g.CheckRows(table, up.Rows, len(up.Grads)); err != nil {
		return Update{}, nil, err
	}
	return up, p[4*n*g.Dim:], nil
}

// UpdateScratch is the reusable decode storage for OpUpdate payloads: the
// update headers plus one arena each for rows and gradient values, grown
// on demand and reused across requests.
type UpdateScratch struct {
	// Ups holds the decoded updates; valid until the next DecodeUpdate.
	Ups []Update
	// Rows is the arena the updates' Rows slices view into.
	Rows []int
	// Grads is the arena the updates' Grads slices view into.
	Grads []float32
}

// MaxUpdatesPerFrame bounds one OpUpdate frame's update count: the
// decoder rejects a corrupt header before it can demand absurd scratch
// growth, and the client enforces the same bound before encoding (the
// count also travels as a uint16, which a larger batch would silently
// truncate into a corrupt frame).
const MaxUpdatesPerFrame = 1 << 12

// DecodeUpdate parses an OpUpdate payload against the geometry into s,
// reusing its arenas, and returns the decoded updates plus the request's
// deadline budget. The returned slice views s and is valid until the next
// call. Every entry meets Geometry.CheckRows — the same contract the
// serving layers enforce — so payload size stays bounded by the geometry.
func DecodeUpdate(payload []byte, g Geometry, s *UpdateScratch) ([]Update, Budget, error) {
	ups, err := decodeUpdates(payload, OpUpdate, g, s)
	if err != nil {
		return nil, 0, err
	}
	return ups, Budget(binary.LittleEndian.Uint32(payload)), nil
}

// decodeUpdates parses the update batch (count + entries) behind the fixed
// prefix of an OpUpdate or OpSync payload.
func decodeUpdates(payload []byte, op Op, g Geometry, s *UpdateScratch) ([]Update, error) {
	head := entryFrameHead[op]
	if len(payload) < head {
		return nil, fmt.Errorf("wire: op %d payload %d B, want at least %d", op, len(payload), head)
	}
	count := int(binary.LittleEndian.Uint16(payload[head-2:]))
	if count == 0 || count > MaxUpdatesPerFrame {
		return nil, fmt.Errorf("wire: update count %d out of range [1, %d]", count, MaxUpdatesPerFrame)
	}
	if cap(s.Ups) < count {
		s.Ups = make([]Update, count)
	}
	s.Ups = s.Ups[:count]
	p := payload[head:]
	// Sized for the most rows p can hold, the arenas never move under the
	// views decodeEntry hands out.
	most := len(p) / (4 * (1 + g.Dim))
	s.Rows, s.Grads = slices.Grow(s.Rows[:0], most), slices.Grow(s.Grads[:0], most*g.Dim)
	for u := range s.Ups {
		var err error
		if s.Ups[u], p, err = decodeEntry(p, g, s); err != nil {
			return nil, fmt.Errorf("wire: update %d: %w", u, err)
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wire: update payload has %d trailing bytes", len(p))
	}
	return s.Ups, nil
}

// AppendSync appends an OpSync frame: the router's sequence number for
// this update batch followed by the batch itself (same body as OpUpdate,
// same caller-side validation obligations).
func AppendSync(buf []byte, id uint64, seq uint64, ups []Update) []byte {
	buf, lenAt := beginFrame(buf, OpSync, id)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = appendUpdates(buf, ups)
	return endFrame(buf, lenAt)
}

// DecodeSync parses an OpSync payload: the sequence number plus the
// update batch, decoded into s exactly like DecodeUpdate.
func DecodeSync(payload []byte, g Geometry, s *UpdateScratch) (seq uint64, ups []Update, err error) {
	if ups, err = decodeUpdates(payload, OpSync, g, s); err != nil {
		return 0, nil, err
	}
	return binary.LittleEndian.Uint64(payload), ups, nil
}

// AppendSyncResp appends an OpSyncResp frame carrying the server's update
// counter after absorbing the sync frame.
func AppendSyncResp(buf []byte, id uint64, seq uint64) []byte {
	buf, lenAt := beginFrame(buf, OpSyncResp, id)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	return endFrame(buf, lenAt)
}

// DecodeSyncResp parses an OpSyncResp or OpRestoreResp payload: both are
// the server's uint64 update counter.
func DecodeSyncResp(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("wire: sequence response %d B, want 8", len(payload))
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// AppendRestore appends an OpRestore frame: one chunk of an absolute table
// snapshot at sequence seq, overwriting the given rows of the table with
// vals (len(rows) x dim values) — a single update entry. commit marks the
// final chunk of the snapshot stream. Like the other hot encoders, size
// validation is the caller's job.
func AppendRestore(buf []byte, id uint64, seq uint64, commit bool, table int, rows []int, vals []float32) []byte {
	buf, lenAt := beginFrame(buf, OpRestore, id)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	c := byte(0)
	if commit {
		c = 1
	}
	buf = appendEntry(append(buf, c), Update{Table: table, Rows: rows, Grads: vals})
	return endFrame(buf, lenAt)
}

// DecodeRestore parses an OpRestore payload against the geometry into s's
// arenas (the same reusable storage DecodeUpdate fills), returning the
// snapshot sequence, the commit flag, and the chunk's target as a single
// Update whose Grads carry absolute row values. The entry is decoded and
// checked exactly like an update frame's, so a malformed restore is
// rejected at the protocol layer.
func DecodeRestore(payload []byte, g Geometry, s *UpdateScratch) (seq uint64, commit bool, up Update, err error) {
	if len(payload) < entryFrameHead[OpRestore] {
		return 0, false, Update{}, fmt.Errorf("wire: restore payload %d B, want at least %d", len(payload), entryFrameHead[OpRestore])
	}
	if payload[8] > 1 {
		return 0, false, Update{}, fmt.Errorf("wire: restore commit byte %d, want 0 or 1", payload[8])
	}
	s.Rows, s.Grads = s.Rows[:0], s.Grads[:0]
	up, rest, err := decodeEntry(payload[entryFrameHead[OpRestore]:], g, s)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	if err != nil {
		return 0, false, Update{}, fmt.Errorf("wire: restore: %w", err)
	}
	return binary.LittleEndian.Uint64(payload), payload[8] == 1, up, nil
}

// AppendRestoreResp appends an OpRestoreResp frame carrying the server's
// update counter after absorbing the restore chunk.
func AppendRestoreResp(buf []byte, id uint64, seq uint64) []byte {
	buf, lenAt := beginFrame(buf, OpRestoreResp, id)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	return endFrame(buf, lenAt)
}

// AppendError appends an OpError frame with the code and message.
func AppendError(buf []byte, id uint64, code ErrCode, msg string) []byte {
	buf, lenAt := beginFrame(buf, OpError, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(code))
	buf = append(buf, msg...)
	return endFrame(buf, lenAt)
}

// DecodeError parses an OpError payload. The message is copied out of the
// payload (error paths may allocate).
func DecodeError(payload []byte) (ErrCode, string, error) {
	if len(payload) < 2 {
		return 0, "", fmt.Errorf("wire: error payload %d B, want at least 2", len(payload))
	}
	return ErrCode(binary.LittleEndian.Uint16(payload)), string(payload[2:]), nil
}

// finishBatch stamps the OpBatch header into the BatchHeaderBytes of
// headroom reserved at buf's front, covering the count sub-frames packed
// behind it, and returns the finished frame. The caller guarantees count
// matches the packed sub-frames and stays within MaxBatchSubFrames — it is
// Writer's zero-copy fast path, so like the other hot encoders it does not
// re-walk the buffer to validate.
func finishBatch(buf []byte, id uint64, count int) []byte {
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	buf[4] = byte(OpBatch)
	binary.LittleEndian.PutUint64(buf[5:], id)
	binary.LittleEndian.PutUint16(buf[13:], uint16(count))
	return buf
}

// AppendBatch appends an OpBatch frame coalescing the given complete
// frames (each already carrying its own header). It is the convenience
// encoder for tests and cold paths; a Writer packs sub-frames directly
// behind reserved headroom instead.
func AppendBatch(buf []byte, id uint64, subs ...[]byte) []byte {
	at := len(buf)
	buf = append(buf, make([]byte, BatchHeaderBytes)...)
	for _, sub := range subs {
		buf = append(buf, sub...)
	}
	finishBatch(buf[at:], id, len(subs))
	return buf
}

// BatchIter walks the sub-frames of an OpBatch payload. Obtain one with
// DecodeBatch, drain it with Next, then check Err: a structural violation
// discovered mid-iteration (truncated interior sub-frame, trailing bytes,
// nested batch) ends the iteration and is reported there.
type BatchIter struct {
	rest      []byte
	remaining int
	count     int
	err       error
}

// Count returns the sub-frame count the batch header announced.
func (it *BatchIter) Count() int { return it.count }

// Err returns the structural error that ended iteration, or nil after a
// clean drain.
func (it *BatchIter) Err() error { return it.err }

// Next returns the next sub-frame's op, id, and payload. The payload
// aliases the batch payload and is valid as long as it is. ok is false
// when the batch is exhausted or a structural violation was found — always
// check Err after the loop.
func (it *BatchIter) Next() (op Op, id uint64, payload []byte, ok bool) {
	if it.err != nil || it.remaining == 0 {
		if it.err == nil && len(it.rest) != 0 {
			it.err = fmt.Errorf("wire: batch has %d trailing bytes after %d sub-frames", len(it.rest), it.count)
		}
		return 0, 0, nil, false
	}
	if len(it.rest) < 4 {
		it.err = fmt.Errorf("wire: batch truncated: %d B left, want a sub-frame length prefix", len(it.rest))
		return 0, 0, nil, false
	}
	n := int(binary.LittleEndian.Uint32(it.rest))
	if n < 1+8 {
		it.err = fmt.Errorf("wire: batch sub-frame length %d below the %d-byte op+id minimum", n, 1+8)
		return 0, 0, nil, false
	}
	if len(it.rest) < 4+n {
		it.err = fmt.Errorf("wire: batch truncated: sub-frame of %d B with %d B left", 4+n, len(it.rest))
		return 0, 0, nil, false
	}
	body := it.rest[4 : 4+n]
	it.rest = it.rest[4+n:]
	it.remaining--
	op = Op(body[0])
	if op == OpBatch {
		it.err = fmt.Errorf("wire: batch may not nest a batch sub-frame")
		return 0, 0, nil, false
	}
	return op, binary.LittleEndian.Uint64(body[1:9]), body[9:], true
}

// DecodeBatch parses an OpBatch payload's count prefix and returns an
// iterator over its sub-frames. Only the count is validated here; per
// sub-frame structure is checked lazily by Next so a receiver can dispatch
// the valid prefix of a batch before hitting a violation.
func DecodeBatch(payload []byte) (BatchIter, error) {
	if len(payload) < 2 {
		return BatchIter{}, fmt.Errorf("wire: batch payload %d B, want at least 2", len(payload))
	}
	count := int(binary.LittleEndian.Uint16(payload))
	if count == 0 || count > MaxBatchSubFrames {
		return BatchIter{}, fmt.Errorf("wire: batch sub-frame count %d out of range [1, %d]", count, MaxBatchSubFrames)
	}
	return BatchIter{rest: payload[2:], remaining: count, count: count}, nil
}

// ReadFrame reads one complete frame from r into buf (grown if needed and
// returned), enforcing max as the frame-size ceiling. The returned payload
// aliases buf and is valid until the next call with the same buffer. An
// oversized or short length field is a protocol violation: the stream can
// no longer be trusted to be frame-aligned, so the caller must close the
// connection.
func ReadFrame(r io.Reader, buf []byte, max int) (op Op, id uint64, payload, _ []byte, err error) {
	// The length prefix is read through the reused buffer, not a local
	// array: a local escapes through the io.Reader interface and would cost
	// one heap allocation per frame on every endpoint.
	if cap(buf) < 64 {
		buf = make([]byte, 64)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < 1+8 {
		return 0, 0, nil, buf, fmt.Errorf("wire: frame length %d below the %d-byte op+id minimum", n, 1+8)
	}
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	if 4+n > max {
		return 0, 0, nil, buf, fmt.Errorf("wire: frame of %d B exceeds the %d B limit", 4+n, max)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, buf, fmt.Errorf("wire: reading %d-byte frame body: %w", n, err)
	}
	op = Op(buf[0])
	id = binary.LittleEndian.Uint64(buf[1:9])
	return op, id, buf[9:], buf, nil
}

// hostLittleEndian reports whether the host's native uint32 layout is
// already the wire's little-endian layout, in which case the float
// codecs degenerate to single memmoves — they dominate the per-byte
// cost of large embed responses, so this is a hot-path fast lane, with
// the portable per-element loop kept as the big-endian fallback.
var hostLittleEndian = func() bool {
	var x uint32 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// AppendFloat32s appends vals to buf as raw little-endian float32 bits —
// the wire's float encoding, exported so on-disk formats (the durability
// plane's snapshot files) lay floats out exactly like the protocol does.
func AppendFloat32s(buf []byte, vals []float32) []byte {
	if hostLittleEndian && len(vals) > 0 {
		return append(buf, unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 4*len(vals))...)
	}
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// DecodeFloat32s fills dst from len(dst)*4 raw little-endian bytes, the
// inverse of AppendFloat32s. p must hold at least 4*len(dst) bytes.
func DecodeFloat32s(dst []float32, p []byte) {
	if hostLittleEndian && len(dst) > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 4*len(dst)), p)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
}
