package netserve_test

import (
	"net"
	"strings"
	"sync"
	"testing"

	"tensordimm/internal/netserve"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// rawDial opens a plain TCP connection, performs the client handshake,
// and returns the connection plus the server's hello — the wire-level
// view a replica router sees, below the netclient abstraction.
func rawDial(t *testing.T, addr string) (net.Conn, wire.Hello) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if _, err := nc.Write(wire.AppendClientHello(nil, 0)); err != nil {
		t.Fatal(err)
	}
	h, _, err := wire.ReadServerHello(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return nc, h
}

// rawCall writes one request frame and reads one response frame.
func rawCall(t *testing.T, nc net.Conn, frame []byte) (wire.Op, uint64, []byte) {
	t.Helper()
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	op, id, payload, _, err := wire.ReadFrame(nc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return op, id, payload
}

// syncFrame builds one sequenced single-table update for the stub
// geometry (dim 4).
func syncFrame(id, seq uint64, rows []int) []byte {
	grads := make([]float32, len(rows)*4)
	for i := range grads {
		grads[i] = float32(i) + float32(seq)*100
	}
	return wire.AppendSync(nil, id, seq, []wire.Update{{Table: 0, Rows: rows, Grads: grads}})
}

// TestSyncSeqGuard pins the three-way sequence guard that makes replica
// catch-up exactly-once: a sync at the counter applies and advances it, a
// replayed sync below the counter is acknowledged without reapplying, and
// a sync ahead of the counter is rejected (the sender skipped updates).
func TestSyncSeqGuard(t *testing.T) {
	b := newStub()
	reg := telemetry.NewRegistry()
	srv, addr := startServer(t, b, netserve.Config{Role: wire.RoleReplica, Registry: reg})
	nc, h := rawDial(t, addr)

	if h.Role != wire.RoleReplica || h.UpdateSeq != 0 {
		t.Fatalf("hello %+v, want RoleReplica at seq 0", h)
	}

	// Seq 0 against a fresh server: applied, counter advances to 1.
	op, id, payload := rawCall(t, nc, syncFrame(10, 0, []int{1, 2}))
	if op != wire.OpSyncResp || id != 10 {
		t.Fatalf("op %d id %d, want OpSyncResp id 10", op, id)
	}
	if seq, err := wire.DecodeSyncResp(payload); err != nil || seq != 1 {
		t.Fatalf("resp seq %d err %v, want 1", seq, err)
	}
	b.mu.Lock()
	applied := len(b.updates)
	b.mu.Unlock()
	if applied != 1 {
		t.Fatalf("%d updates applied, want 1", applied)
	}

	// The same seq replayed (as a router does after a reconnect): the ack
	// carries the current counter and the backend is NOT touched again.
	op, _, payload = rawCall(t, nc, syncFrame(11, 0, []int{1, 2}))
	if op != wire.OpSyncResp {
		t.Fatalf("replay answered with op %d, want OpSyncResp", op)
	}
	if seq, err := wire.DecodeSyncResp(payload); err != nil || seq != 1 {
		t.Fatalf("replay resp seq %d err %v, want 1", seq, err)
	}
	b.mu.Lock()
	applied = len(b.updates)
	b.mu.Unlock()
	if applied != 1 {
		t.Fatalf("replay reapplied: %d updates, want 1", applied)
	}

	// A gap (seq ahead of the counter) can only produce divergent
	// replicas; it is rejected as a bad request, not applied.
	op, _, payload = rawCall(t, nc, syncFrame(12, 5, []int{3}))
	if op != wire.OpError {
		t.Fatalf("gapped sync answered with op %d, want OpError", op)
	}
	code, msg, err := wire.DecodeError(payload)
	if err != nil || code != wire.ErrBadRequest {
		t.Fatalf("gapped sync: code %v err %v, want BAD_REQUEST", code, err)
	}
	if !strings.Contains(msg, "replay") {
		t.Fatalf("gap rejection does not say what to do: %q", msg)
	}

	// A plain (unsequenced) update advances the same counter — replicas
	// still answer direct updates, and the handshake seq accounts them.
	op, _, _ = rawCall(t, nc, wire.AppendUpdate(nil, 13, 0, []wire.Update{{
		Table: 1, Rows: []int{4}, Grads: make([]float32, 4),
	}}))
	if op != wire.OpUpdateResp {
		t.Fatalf("plain update answered with op %d, want OpUpdateResp", op)
	}
	if got := srv.UpdateSeq(); got != 2 {
		t.Fatalf("UpdateSeq %d, want 2", got)
	}

	// A fresh handshake announces the advanced counter — what a router
	// reads on reconnect to size its replay.
	_, h2 := rawDial(t, addr)
	if h2.UpdateSeq != 2 {
		t.Fatalf("reconnect hello seq %d, want 2", h2.UpdateSeq)
	}

	snap := reg.Snapshot()
	syncs, _ := snap.Counter("tensordimm_net_syncs_total")
	updates, _ := snap.Counter("tensordimm_net_updates_total")
	seq, _ := snap.Gauge("tensordimm_net_update_seq")
	if syncs != 2 || updates != 1 || seq != 2 {
		t.Fatalf("metrics Syncs %d Updates %d UpdateSeq %g, want 2 1 2", syncs, updates, seq)
	}
}

// gatedApply is stubBackend whose first ApplyUpdates signals entered and
// then waits for release; later ones pass straight through.
type gatedApply struct {
	*stubBackend
	entered, release chan struct{}
	once             sync.Once
}

// ApplyUpdates implements netserve.Backend.
func (b *gatedApply) ApplyUpdates(ups []runtime.TableUpdate) error {
	first := false
	b.once.Do(func() { first = true })
	if first {
		close(b.entered)
		<-b.release
	}
	return b.stubBackend.ApplyUpdates(ups)
}

// TestPlainUpdateDuringSyncCounted pins that a plain UPDATE applied while a
// SYNC is inside its apply still counts: the SYNC's bump must not
// overwrite it, so the counter reads 2 after one of each.
func TestPlainUpdateDuringSyncCounted(t *testing.T) {
	b := &gatedApply{stubBackend: newStub(), entered: make(chan struct{}), release: make(chan struct{})}
	srv, addr := startServer(t, b, netserve.Config{Role: wire.RoleReplica})
	var once sync.Once
	release := func() { once.Do(func() { close(b.release) }) }
	t.Cleanup(release)

	nc, _ := rawDial(t, addr)
	if _, err := nc.Write(syncFrame(1, 0, []int{1})); err != nil {
		t.Fatal(err)
	}
	<-b.entered // the SYNC holds its apply
	op, _, _ := rawCall(t, nc, wire.AppendUpdate(nil, 2, 0, []wire.Update{{
		Table: 1, Rows: []int{4}, Grads: make([]float32, 4),
	}}))
	if op != wire.OpUpdateResp {
		t.Fatalf("plain update answered with op %d, want OpUpdateResp", op)
	}
	release()
	op, id, payload, _, err := wire.ReadFrame(nc, nil, 0)
	if err != nil || op != wire.OpSyncResp || id != 1 {
		t.Fatalf("sync answered op %d id %d err %v, want OpSyncResp id 1", op, id, err)
	}
	if seq, err := wire.DecodeSyncResp(payload); err != nil || seq != 2 {
		t.Fatalf("sync resp seq %d err %v, want 2", seq, err)
	}
	if got := srv.UpdateSeq(); got != 2 {
		t.Fatalf("UpdateSeq %d after one SYNC and one UPDATE, want 2", got)
	}
}

// TestRoleValidation pins that New rejects unknown roles and that the
// default role announced is standalone.
func TestRoleValidation(t *testing.T) {
	if _, err := netserve.New(newStub(), netserve.Config{Role: wire.Role(7)}); err == nil {
		t.Fatal("unknown role accepted")
	}
	_, addr := startServer(t, newStub(), netserve.Config{})
	_, h := rawDial(t, addr)
	if h.Role != wire.RoleStandalone {
		t.Fatalf("default role %v, want STANDALONE", h.Role)
	}
}
