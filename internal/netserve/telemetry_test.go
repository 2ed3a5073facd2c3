package netserve_test

import (
	"testing"
	"time"

	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
)

// TestTelemetryInstrumentedServer drives embeds, an update and a ping
// through a server wired to a telemetry registry and asserts the
// network-plane series, the wire-carried snapshot, and the slow-request
// ring (one request is held past the 1ms default slow threshold, so its
// per-hop trace must land in the ring).
func TestTelemetryInstrumentedServer(t *testing.T) {
	const fastEmbeds = 5
	b := newStub()
	// Token-gate the backend: pre-filled tokens let the fast phase run
	// unblocked; the final embed waits for a late token, making it slow.
	// Every entry leaves a mark, so the late token is timed from the final
	// embed's entry, not from before it was sent.
	b.entered = make(chan struct{}, fastEmbeds+1)
	b.release = make(chan struct{}, fastEmbeds+1)
	for i := 0; i < fastEmbeds; i++ {
		b.release <- struct{}{}
	}
	reg := telemetry.NewRegistry()
	_, addr := startServer(t, b, netserve.Config{Registry: reg})
	cl := dialClient(t, addr, netclient.Config{})
	g := cl.Geometry()

	var dst []float32
	for i := 0; i < fastEmbeds; i++ {
		d, err := cl.EmbedInto(dst, reqRows(g, 2, i), 2)
		if err != nil {
			t.Fatal(err)
		}
		dst = d
	}
	grads := tensor.New(2, g.Dim)
	if err := cl.Update([]runtime.TableUpdate{{Table: 0, Rows: []int{1, 2}, Grads: grads}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i <= fastEmbeds; i++ {
			<-b.entered
		}
		time.Sleep(2 * time.Millisecond)
		b.release <- struct{}{}
	}()
	if _, err := cl.EmbedInto(dst, reqRows(g, 2, 99), 2); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if v, ok := snap.Counter("tensordimm_net_requests_total"); !ok || v != fastEmbeds+1 {
		t.Fatalf("net_requests_total = %d, %v; want %d, true", v, ok, fastEmbeds+1)
	}
	if v, ok := snap.Counter("tensordimm_net_updates_total"); !ok || v != 1 {
		t.Fatalf("net_updates_total = %d, %v; want 1, true", v, ok)
	}
	if v, ok := snap.Counter("tensordimm_net_pings_total"); !ok || v != 1 {
		t.Fatalf("net_pings_total = %d, %v; want 1, true", v, ok)
	}
	if v, ok := snap.Counter("tensordimm_net_shed_total"); !ok || v != 0 {
		t.Fatalf("net_shed_total = %d, %v; want 0, true", v, ok)
	}
	if v, ok := snap.Gauge("tensordimm_net_inflight"); !ok || v != 0 {
		t.Fatalf("net_inflight = %g, %v; want 0, true", v, ok)
	}
	if v, ok := snap.Gauge("tensordimm_net_update_seq"); !ok || v != 1 {
		t.Fatalf("net_update_seq = %g, %v; want 1, true", v, ok)
	}
	h, ok := snap.Histogram("tensordimm_net_request_seconds")
	if !ok || h.Count < fastEmbeds+1 {
		t.Fatalf("net_request_seconds count = %d, %v; want >= %d, true", h.Count, ok, fastEmbeds+1)
	}

	// The gated final embed ran well past the 1ms default slow threshold,
	// so the ring must hold its trace with all three hops closed.
	slow := reg.SlowRequests()
	if len(slow) == 0 {
		t.Fatal("slow-request ring empty after a 2ms-gated request")
	}
	if slow[0].Tracer != "net" || len(slow[0].Hops) != 3 {
		t.Fatalf("slow[0] = tracer %q with %d hops; want net with 3", slow[0].Tracer, len(slow[0].Hops))
	}

	// The METRICS wire op carries the same registry as a versioned
	// snapshot, and nothing else.
	wireSnap, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if wireSnap == nil || wireSnap.Version != telemetry.SnapshotVersion {
		t.Fatalf("wire snapshot = %+v; want version %d", wireSnap, telemetry.SnapshotVersion)
	}
	if v, ok := wireSnap.Counter("tensordimm_net_requests_total"); !ok || v != fastEmbeds+1 {
		t.Fatalf("wire net_requests_total = %d, %v; want %d, true", v, ok, fastEmbeds+1)
	}
}
