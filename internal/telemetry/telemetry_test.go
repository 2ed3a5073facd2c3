package telemetry

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHistogramPercentileErrorBound records identical samples into a
// telemetry histogram and a raw sample slice, and checks the bucketed
// quantile estimate against the exact percentile within the geometry's
// guaranteed relative error (~9.1%, tested at 10%).
func TestHistogramPercentileErrorBound(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_seconds", "test")
	rng := rand.New(rand.NewSource(42))
	samples := make([]float64, 20000)
	for i := range samples {
		// Log-uniform over [2µs, 1s] — several orders of magnitude, like
		// real serving latencies.
		samples[i] = 2e-6 * math.Pow(5e5, rng.Float64())
		h.Observe(samples[i])
	}
	hs := h.Snapshot()
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999} {
		// The exact quantile, interpolated between the closest ranks.
		rank := q * float64(len(sorted)-1)
		lo := int(rank)
		want := sorted[lo] + (sorted[lo+1]-sorted[lo])*(rank-float64(lo))
		got := hs.Quantile(q)
		relErr := math.Abs(got-want) / want
		if relErr > 0.10 {
			t.Errorf("q=%v: got %v want %v (rel err %.3f > 0.10)", q, got, want, relErr)
		}
	}
	if hs.Count != uint64(len(samples)) {
		t.Errorf("count = %d, want %d", hs.Count, len(samples))
	}
	wantMean := 0.0
	for _, v := range samples {
		wantMean += v
	}
	wantMean /= float64(len(samples))
	if relErr := math.Abs(hs.Mean()-wantMean) / wantMean; relErr > 0.01 {
		t.Errorf("mean = %v, want %v", hs.Mean(), wantMean)
	}
}

// TestHistogramConcurrentRecording hammers one histogram from many
// goroutines; run under -race this is the lock-free recording safety
// test, and the final count/sum must be exact regardless.
func TestHistogramConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("conc_seconds", "test")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64() * 0.01)
				if i%100 == 0 {
					h.Snapshot() // readers race recorders
				}
			}
		}(int64(w))
	}
	wg.Wait()
	hs := h.Snapshot()
	if hs.Count != workers*per {
		t.Fatalf("count = %d, want %d", hs.Count, workers*per)
	}
	total := uint64(0)
	for _, c := range hs.Counts {
		total += c
	}
	if total != hs.Count {
		t.Fatalf("bucket total %d != count %d", total, hs.Count)
	}
	if hs.Min < 0 || hs.Max > 0.01 || hs.Min > hs.Max {
		t.Fatalf("min/max out of range: %v/%v", hs.Min, hs.Max)
	}
}

// TestHistogramEdgeCases covers empty histograms, zero/negative samples,
// overflow clamping, and quantile bounds.
func TestHistogramEdgeCases(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edge_seconds", "test")
	hs := h.Snapshot()
	if hs.Quantile(0.99) != 0 || hs.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(-1)  // clamps to 0 → bucket 0
	h.Observe(0)   // bucket 0
	h.Observe(1e9) // clamps into the last bucket
	hs = h.Snapshot()
	if hs.Counts[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2", hs.Counts[0])
	}
	if hs.Counts[HistBuckets-1] != 1 {
		t.Fatalf("last bucket = %d, want 1", hs.Counts[HistBuckets-1])
	}
	if q := hs.Quantile(-1); q != hs.Quantile(0) {
		t.Fatalf("q<0 should clamp: %v vs %v", q, hs.Quantile(0))
	}
	if q := hs.Quantile(2); q != hs.Quantile(1) {
		t.Fatalf("q>1 should clamp: %v vs %v", q, hs.Quantile(1))
	}
	// Quantiles are clamped into the observed range.
	if hs.Quantile(1) > hs.Max || hs.Quantile(0) < hs.Min {
		t.Fatalf("quantile escaped [min,max]")
	}
	bb := bounds
	if len(bb) != HistBuckets || bb[0] != HistBase {
		t.Fatalf("bucket bounds: len %d first %v", len(bb), bb[0])
	}
	for i := 1; i < len(bb); i++ {
		if bb[i] <= bb[i-1] {
			t.Fatalf("bounds not increasing at %d", i)
		}
	}
}

// TestRegistrySeries exercises func-backed counters and gauges, snapshot
// lookup helpers, and label rendering.
func TestRegistrySeries(t *testing.T) {
	reg := NewRegistry()
	var hits atomic.Uint64
	hits.Store(7)
	reg.Counter("hits_total", "cache hits", hits.Load, L("shard", "0"))
	reg.Gauge("depth", "queue depth", func() float64 { return 3.5 })
	h := reg.Histogram("lat_seconds", "latency")
	h.Observe(0.001)

	s := reg.Snapshot()
	if s.Version != SnapshotVersion {
		t.Fatalf("version %d", s.Version)
	}
	if v, ok := s.Counter("hits_total", L("shard", "0")); !ok || v != 7 {
		t.Fatalf("counter lookup: %v %v", v, ok)
	}
	if _, ok := s.Counter("hits_total"); ok {
		t.Fatal("label-less lookup should miss the labeled series")
	}
	if v, ok := s.Gauge("depth"); !ok || v != 3.5 {
		t.Fatalf("gauge lookup: %v %v", v, ok)
	}
	if hsnap, ok := s.Histogram("lat_seconds"); !ok || hsnap.Count != 1 {
		t.Fatalf("histogram lookup: %+v %v", hsnap, ok)
	}
	if _, ok := s.Histogram("nope"); ok {
		t.Fatal("missing histogram should not resolve")
	}
	if _, ok := s.Gauge("nope"); ok {
		t.Fatal("missing gauge should not resolve")
	}
	hits.Add(1)
	if v, _ := reg.Snapshot().Counter("hits_total", L("shard", "0")); v != 8 {
		t.Fatalf("counter should read live value, got %d", v)
	}

	// Snapshots must round-trip through JSON.
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Counter("hits_total", L("shard", "0")); !ok || v != 7 {
		t.Fatalf("post-roundtrip counter: %v %v", v, ok)
	}
}

// TestDuplicateRegistrationPanics checks the wiring-bug guard.
func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	reg.Counter("x_total", "x", func() uint64 { return 0 })
}

// TestPromText checks the Prometheus exposition rendering: grouped
// HELP/TYPE headers, labeled samples, and cumulative histogram buckets.
func TestPromText(t *testing.T) {
	reg := NewRegistry()
	var c0, c1 atomic.Uint64
	c0.Store(5)
	c1.Store(9)
	reg.Counter("hits_total", "cache hits", c0.Load, L("shard", "0"))
	reg.Gauge("rate", "hit rate", func() float64 { return 0.25 })
	reg.Counter("hits_total", "cache hits", c1.Load, L("shard", "1"))
	h := reg.Histogram("lat_seconds", "latency")
	h.Observe(0.001)
	h.Observe(0.002)

	text := reg.PromText()
	for _, want := range []string{
		"# HELP hits_total cache hits",
		"# TYPE hits_total counter",
		`hits_total{shard="0"} 5`,
		`hits_total{shard="1"} 9`,
		"# TYPE rate gauge",
		"rate 0.25",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="+Inf"} 2`,
		"lat_seconds_count 2",
		"lat_seconds_sum 0.003",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Same-name series must be grouped under one header even though a
	// gauge was registered between them.
	if strings.Count(text, "# TYPE hits_total counter") != 1 {
		t.Errorf("hits_total header not deduplicated:\n%s", text)
	}
	// Buckets are cumulative: the +Inf bucket equals the count.
	if !strings.Contains(text, `le="+Inf"} 2`) {
		t.Errorf("+Inf bucket wrong:\n%s", text)
	}
}

// TestPromTextRendersOneSnapshot pins that a scrape runs the snapshot
// hooks exactly once and renders byte-for-byte the exposition a fixed
// registry has always produced.
func TestPromTextRendersOneSnapshot(t *testing.T) {
	reg := NewRegistry()
	hooks := 0
	reg.OnSnapshot(func() { hooks++ })
	var c0, c1 atomic.Uint64
	c0.Store(5)
	c1.Store(9)
	reg.Counter("hits_total", "cache hits", c0.Load, L("shard", "0"))
	reg.Gauge("rate", "hit rate", func() float64 { return 0.25 })
	reg.Counter("hits_total", "cache hits", c1.Load, L("shard", "1"))
	reg.Gauge("up", "replicas up", func() float64 { return 2 })

	got := reg.PromText()
	if hooks != 1 {
		t.Fatalf("one scrape ran the snapshot hooks %d times, want 1", hooks)
	}
	const want = `# HELP hits_total cache hits
# TYPE hits_total counter
hits_total{shard="0"} 5
hits_total{shard="1"} 9
# HELP rate hit rate
# TYPE rate gauge
rate 0.25
# HELP up replicas up
# TYPE up gauge
up 2
`
	if got != want {
		t.Fatalf("PromText:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteTextGolden pins the human renderer line for line: counters,
// then gauges, then histograms, each in registration order, and a
// snapshot decoded from the METRICS payload renders identically.
func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	var reqs, hits atomic.Uint64
	reqs.Store(42)
	hits.Store(7)
	reg.Counter("reqs_total", "requests", reqs.Load)
	reg.Gauge("depth", "queue depth", func() float64 { return 2.5 }, L("shard", "1"))
	reg.Counter("hits_total", "cache hits", hits.Load, L("shard", "0"))
	h := reg.Histogram("lat_seconds", "latency")
	for i := 0; i < 3; i++ {
		h.Observe(0.002)
	}
	reg.Histogram("idle_seconds", "never observed")

	const want = `reqs_total 42
hits_total{shard="0"} 7
depth{shard="1"} 2.5
lat_seconds n=3 mean=2.00 ms p50=2.00 ms p95=2.00 ms p99=2.00 ms max=2.00 ms
idle_seconds no observations
`
	var local strings.Builder
	if err := reg.Snapshot().WriteText(&local); err != nil {
		t.Fatal(err)
	}
	if local.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", local.String(), want)
	}
	decoded, err := DecodeWirePayload(EncodeWirePayload(reg))
	if err != nil {
		t.Fatal(err)
	}
	var remote strings.Builder
	decoded.WriteText(&remote)
	if remote.String() != want {
		t.Fatalf("decoded snapshot renders:\n%s\nwant:\n%s", remote.String(), want)
	}
}

// TestWirePayloadRoundTrip covers encode/decode of the METRICS payload:
// exactly the magic plus the JSON snapshot, and the nil-registry shape.
func TestWirePayloadRoundTrip(t *testing.T) {
	reg := NewRegistry()
	var n atomic.Uint64
	n.Store(42)
	reg.Counter("reqs_total", "requests", n.Load)
	payload := EncodeWirePayload(reg)
	var direct Snapshot
	if err := json.Unmarshal([]byte(strings.TrimPrefix(string(payload), wireMagic)), &direct); err != nil || !strings.HasPrefix(string(payload), wireMagic) {
		t.Fatalf("payload is not magic + one JSON document: %v\n%q", err, payload)
	}
	snap, err := DecodeWirePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Counter("reqs_total"); !ok || v != 42 {
		t.Fatalf("snapshot counter: %v %v", v, ok)
	}

	// Nil registry still yields a well-formed, versioned payload.
	snap, err = DecodeWirePayload(EncodeWirePayload(nil))
	if err != nil || snap == nil || snap.Version != SnapshotVersion || len(snap.Counters) != 0 {
		t.Fatalf("nil-registry payload: snap=%+v err=%v", snap, err)
	}
}

// TestDecodeWirePayloadRejects covers every malformed METRICS payload,
// including a revision-6 payload that still trails its text report.
func TestDecodeWirePayloadRejects(t *testing.T) {
	good := string(EncodeWirePayload(NewRegistry()))
	for _, tc := range []struct {
		name, payload string
		want          error // nil: any error
	}{
		{"no magic", "text report without the magic", ErrNoSnapshot},
		{"v6 text tail", good + "\n---\nrequests 3 (3 samples, 0 failures)", nil},
		{"unknown version", wireMagic + `{"version":99}`, nil},
		{"version zero", wireMagic + `{}`, nil},
		{"bad json", wireMagic + "{bad json", nil},
		{"empty", wireMagic, nil},
	} {
		snap, err := DecodeWirePayload([]byte(tc.payload))
		if err == nil || snap != nil {
			t.Errorf("%s: snap=%v err=%v, want an error", tc.name, snap, err)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err=%v, want %v", tc.name, err, tc.want)
		}
	}
}
