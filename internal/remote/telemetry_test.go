package remote_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netserve"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
)

// TestInstrumentExportsSeries drives mixed traffic through an
// instrumented router and asserts the registry snapshot carries the
// routing counters, the fleet-health and durability gauges, the latency
// histogram, and each shard store's persist series.
func TestInstrumentExportsSeries(t *testing.T) {
	m := buildModel(t)
	_, addrs := startFleet(t, cluster.TableWise, 2, 1)
	rc := newRouter(t, m, cluster.TableWise, addrs, nil)
	reg := telemetry.NewRegistry()
	rc.Instrument(reg)

	const reads, writes = 8, 6
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < writes; i++ {
		if err := rc.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < reads; i++ {
		checkGolden(t, m, rc, randRows(rng, m.Cfg, 4), 4)
	}

	snap := reg.Snapshot()
	if v, ok := snap.Counter("tensordimm_remote_requests_total"); !ok || v != reads {
		t.Fatalf("requests_total = %d, %v; want %d, true", v, ok, reads)
	}
	if v, ok := snap.Counter("tensordimm_remote_updates_total"); !ok || v != writes {
		t.Fatalf("updates_total = %d, %v; want %d, true", v, ok, writes)
	}
	if v, ok := snap.Counter("tensordimm_remote_failures_total"); !ok || v != 0 {
		t.Fatalf("failures_total = %d, %v; want 0, true", v, ok)
	}
	if v, ok := snap.Gauge("tensordimm_remote_replicas_total"); !ok || v != 2 {
		t.Fatalf("replicas_total = %g, %v; want 2, true", v, ok)
	}
	if v, ok := snap.Gauge("tensordimm_remote_replicas_up"); !ok || v != 2 {
		t.Fatalf("replicas_up = %g, %v; want 2, true", v, ok)
	}
	if v, ok := snap.Gauge("tensordimm_remote_breakers_open"); !ok || v != 0 {
		t.Fatalf("breakers_open = %g, %v; want 0, true", v, ok)
	}
	// A volatile (no DataDir) store retains the appended tail in memory
	// and reports zero WAL bytes.
	if v, ok := snap.Gauge("tensordimm_remote_log_entries"); !ok || v == 0 {
		t.Fatalf("log_entries = %g, %v; want > 0, true", v, ok)
	}
	if v, ok := snap.Gauge("tensordimm_remote_wal_bytes"); !ok || v != 0 {
		t.Fatalf("wal_bytes = %g, %v; want 0, true", v, ok)
	}
	h, ok := snap.Histogram("tensordimm_remote_request_seconds")
	if !ok || h.Count != reads {
		t.Fatalf("request_seconds count = %d, %v; want %d, true", h.Count, ok, reads)
	}
	for _, shard := range []string{"0", "1"} {
		if _, ok := snap.Counter("tensordimm_persist_appends_total", telemetry.L("shard", shard)); !ok {
			t.Fatalf("persist appends series missing for shard %s", shard)
		}
	}

	// The human report is the same snapshot, one line per series.
	var text strings.Builder
	snap.WriteText(&text)
	for _, line := range []string{"tensordimm_remote_replicas_up 2\n", "tensordimm_remote_updates_total 6\n", "tensordimm_remote_request_seconds n=8 "} {
		if !strings.Contains(text.String(), line) {
			t.Fatalf("report missing %q:\n%s", line, text.String())
		}
	}
}

// TestSnapshotNeverWaitsOnUpdateLock pins that reading the router's series
// takes no shard's update lock. An update holds that lock across a SYNC
// round trip with no deadline, a snapshot scrape or a shed back-off, so a
// gauge that waited on it would hang /metrics behind a slow replica — and
// a METRICS request, which a netserve front answers on the connection's
// reader, would stall every read pipelined behind it. With shard 0's lock
// held, a registry snapshot and a METRICS round trip through a front on
// that registry must each return within the watchdog, with the fleet
// gauges read.
func TestSnapshotNeverWaitsOnUpdateLock(t *testing.T) {
	const writes = 4
	m := buildModel(t)
	_, addrs := startFleet(t, cluster.TableWise, 2, 1)
	rc := newRouter(t, m, cluster.TableWise, addrs, func(cfg *remote.Config) { cfg.DataDir = t.TempDir() })
	reg := instrument(rc)
	_, cl := startFrontWith(t, rc, netserve.Config{Registry: reg})
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < writes; i++ {
		if err := rc.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
			t.Fatal(err)
		}
	}

	release := rc.HoldUpdateLock(0)
	defer release() // before the cleanups close the front and the router
	type result struct {
		snap *telemetry.Snapshot
		err  error
	}
	for what, read := range map[string]func() (*telemetry.Snapshot, error){
		"registry snapshot":  func() (*telemetry.Snapshot, error) { return reg.Snapshot(), nil },
		"METRICS round trip": cl.Metrics,
	} {
		done := make(chan result, 1)
		go func() {
			snap, err := read()
			done <- result{snap, err}
		}()
		var r result
		select {
		case r = <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s still blocked after 2s on a held shard update lock", what)
		}
		if r.err != nil {
			t.Fatalf("%s: %v", what, r.err)
		}
		if v, ok := r.snap.Gauge("tensordimm_remote_log_entries"); !ok || v != writes {
			t.Errorf("%s: log_entries = %g, %v; want %d, true", what, v, ok, writes)
		}
		if v, ok := r.snap.Gauge("tensordimm_remote_wal_bytes"); !ok || v == 0 {
			t.Errorf("%s: wal_bytes = %g, %v; want > 0, true", what, v, ok)
		}
		if v, ok := r.snap.Gauge("tensordimm_remote_replicas_up"); !ok || v != 2 {
			t.Errorf("%s: replicas_up = %g, %v; want 2, true", what, v, ok)
		}
	}
}
