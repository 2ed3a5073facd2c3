// Package telemetry is the live observability plane of the serving stack:
// a process-wide metrics registry unifying the counters every serving
// layer (serve, cluster, netserve, netclient, remote, persist, chaos)
// already keeps, plus per-hop request tracing feeding a bounded ring of
// recent slow requests.
//
// The registry is built for a steady-state read path that must stay
// allocation-free with telemetry enabled (the CI benchmark gate):
//
//   - counters and gauges are func-backed — the owning layer keeps its
//     existing atomic counter and registers a closure that reads it, so
//     the hot path pays nothing at all for exposure and each layer keeps
//     ownership of its own series (see ARCHITECTURE.md, "Observability
//     plane");
//   - latency histograms are fixed-bucket log-scale arrays of atomics:
//     Observe computes a bucket index and does two atomic adds — no
//     locks, no maps, no allocation — and readers take a consistent-
//     enough snapshot by copying the bucket array;
//   - spans are plain value structs embedded in the layers' already-
//     pooled request objects, so tracing recycles with them.
//
// Registry.Snapshot is the only read of the registry, and every view
// renders a Snapshot: WriteText, one line per series, for the human
// reports the commands and examples print; Prometheus text exposition
// (PromText) for scrapers; JSON for tooling and the SSE stream; and the
// versioned wire payload (EncodeWirePayload) that the METRICS network op
// carries, so a remote client renders or asserts on the server's exact
// series. The admin HTTP endpoint over all of it lives in NewHandler.
package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tensordimm/internal/stats"
)

// SnapshotVersion is the schema revision stamped into every Snapshot.
// Consumers of the wire payload and /metrics.json reject a version they
// do not understand instead of misreading bucket layouts. Version 1 pins
// the histogram geometry below (HistBuckets log-scale buckets growing by
// 2^(1/4) from HistBase seconds).
const SnapshotVersion = 1

// Histogram bucket geometry, fixed by SnapshotVersion. Bucket 0 covers
// (0, HistBase]; bucket i covers (HistBase*g^(i-1), HistBase*g^i] with
// growth g = 2^(1/4), so 112 buckets span 100ns to ~27s and a quantile
// estimated at a bucket's geometric midpoint is within 2^(1/8)-1 (~9.1%)
// of the true sample. Values past the last bound clamp into it.
const (
	// HistBuckets is the fixed bucket count of every histogram.
	HistBuckets = 112
	// HistBase is the upper bound of bucket 0 in seconds (100ns).
	HistBase = 1e-7
)

// bounds holds each bucket's upper bound in seconds, precomputed once.
var bounds = func() [HistBuckets]float64 {
	var b [HistBuckets]float64
	for i := range b {
		b[i] = HistBase * math.Pow(2, float64(i)/4)
	}
	return b
}()

// Label is one name=value dimension of a series (e.g. shard="0"). Series
// identity is the metric name plus the rendered label string, in the
// order given — registrants of the same metric must use one label order.
type Label struct {
	// Key is the label name.
	Key string
	// Value is the label value.
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// renderLabels renders labels as `k1="v1",k2="v2"` (no braces), the
// canonical label string used for series identity and JSON.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// counterSeries is one registered monotonic counter, read through fn at
// snapshot time.
type counterSeries struct {
	name, labels, help string
	fn                 func() uint64
}

// gaugeSeries is one registered gauge, read through fn at snapshot time.
type gaugeSeries struct {
	name, labels, help string
	fn                 func() float64
}

// histSeries is one registered histogram: the owning layer records into h,
// the registry holds its series identity.
type histSeries struct {
	name, labels, help string
	h                  *Histogram
}

// Registry is a process-wide metrics registry: func-backed counters and
// gauges, lock-free histograms, tracers, and the shared slow-request
// ring. Create with NewRegistry; register every series before the traffic
// it measures starts (registration takes a lock, recording never does).
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	names    map[string]struct{}
	counters []*counterSeries
	gauges   []*gaugeSeries
	hists    []*histSeries
	tracers  []*Tracer
	hooks    []func()
	ring     slowRing
	started  time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{}), started: time.Now()}
}

// register claims a series key, panicking on a duplicate: two layers
// registering the same name+labels is a wiring bug that would silently
// shadow one of them, so it fails loudly at startup instead.
func (r *Registry) register(kind, name, labels string) {
	key := name + "{" + labels + "}"
	if _, dup := r.names[key]; dup {
		panic(fmt.Sprintf("telemetry: duplicate %s series %s", kind, key))
	}
	r.names[key] = struct{}{}
}

// Counter registers a monotonic counter series whose value is read by fn
// at snapshot time. The owning layer keeps its own atomic counter; fn is
// typically that counter's Load method.
func (r *Registry) Counter(name, help string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls := renderLabels(labels)
	r.register("counter", name, ls)
	r.counters = append(r.counters, &counterSeries{name: name, labels: ls, help: help, fn: fn})
}

// Gauge registers a gauge series whose value is read by fn at snapshot
// time. Gauges may go up and down (in-flight requests, replicas up, WAL
// bytes, hit rate).
func (r *Registry) Gauge(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls := renderLabels(labels)
	r.register("gauge", name, ls)
	r.gauges = append(r.gauges, &gaugeSeries{name: name, labels: ls, help: help, fn: fn})
}

// Histogram creates, registers and returns a latency histogram — for
// collectors that live on the registry itself. A serving layer owns its
// histograms from construction (NewHistogram) and exposes them with
// RegisterHistogram instead.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := NewHistogram()
	r.RegisterHistogram(name, help, h, labels...)
	return h
}

// RegisterHistogram exposes a histogram its layer already records into as
// a named series. The layer keeps ownership: recording never touches the
// registry, and a layer that is never instrumented still has its latency
// digest.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls := renderLabels(labels)
	r.register("histogram", name, ls)
	r.hists = append(r.hists, &histSeries{name: name, labels: ls, help: help, h: h})
}

// OnSnapshot registers a hook run at the start of every Snapshot, before
// series are read — the place for scrape-time collectors (the Go runtime
// collector feeds new GC pauses into its histogram here).
func (r *Registry) OnSnapshot(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// Histogram is a fixed-bucket log-scale latency histogram with lock-free
// recording: Observe does two atomic adds and (rarely) two CAS loops, no
// locks and no allocation, so it is safe on the zero-allocation serving
// path. Readers snapshot by copying the bucket array; a snapshot racing
// concurrent Observes may be off by the in-flight observations, which is
// the usual monitoring contract.
type Histogram struct {
	buckets  [HistBuckets]atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Uint64
	minBits  atomic.Uint64 // float64 bits; +Inf until first Observe
	maxBits  atomic.Uint64 // float64 bits; 0 until first Observe
}

// NewHistogram returns an empty histogram ready to Observe. The zero value
// is not usable: the running minimum must start at +Inf.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	return h
}

// bucketIndex maps a value in seconds to its bucket.
func bucketIndex(v float64) int {
	if v <= HistBase {
		return 0
	}
	i := int(math.Ceil(math.Log2(v/HistBase) * 4))
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// Observe records one value in seconds. Negative values record as zero.
// Safe for concurrent use; never allocates.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	// The sum is kept in integer nanoseconds, so one atomic add records
	// it.
	h.sumNanos.Add(uint64(v * 1e9))
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Snapshot copies the histogram's current state. Name and Labels are left
// empty; the registry stamps them on the series it exposes.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sumNanos.Load(),
		Counts:   make([]uint64, HistBuckets),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	s.finalize()
	return s
}

// HistogramSnapshot is a point-in-time copy of one histogram: per-bucket
// counts in the fixed SnapshotVersion geometry plus derived percentiles.
// All times are in seconds except SumNanos (integer nanoseconds).
type HistogramSnapshot struct {
	// Name and Labels identify the series.
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// SumNanos is the sum of all observations in integer nanoseconds.
	SumNanos uint64 `json:"sum_ns"`
	// Min and Max are the smallest and largest observed values (seconds).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// P50, P95 and P99 are bucket-estimated percentiles in seconds, each
	// within ~9.1% of the true sample (see the bucket geometry).
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
	// Counts holds one entry per bucket (len HistBuckets).
	Counts []uint64 `json:"counts"`
}

// finalize recomputes the derived percentile fields from the buckets.
func (s *HistogramSnapshot) finalize() {
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
}

// Quantile estimates the q-quantile (0 <= q <= 1) in seconds from the
// bucket counts: the bucket holding the target rank contributes its
// geometric midpoint, clamped into the observed [Min, Max]. Returns 0
// when the histogram is empty.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	cum := uint64(0)
	idx := len(s.Counts) - 1
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			idx = i
			break
		}
	}
	lo := HistBase * math.Pow(2, float64(idx-1)/4) // lower bound of bucket idx
	if idx == 0 {
		lo = bounds[0] / math.Pow(2, 0.25)
	}
	est := math.Sqrt(lo * bounds[idx])
	return math.Min(math.Max(est, s.Min), s.Max)
}

// Mean returns the mean observation in seconds (0 when empty).
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNanos) / 1e9 / float64(s.Count)
}

// String renders the digest in human units, the value WriteText prints
// for a histogram series.
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "no observations"
	}
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		s.Count, stats.FormatSeconds(s.Mean()), stats.FormatSeconds(s.P50),
		stats.FormatSeconds(s.P95), stats.FormatSeconds(s.P99), stats.FormatSeconds(s.Max))
}

// CounterValue is one counter series' snapshot value.
type CounterValue struct {
	// Name and Labels identify the series; Value is the counter reading.
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  uint64 `json:"value"`
}

// GaugeValue is one gauge series' snapshot value.
type GaugeValue struct {
	// Name and Labels identify the series; Value is the gauge reading.
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Snapshot is a point-in-time copy of every registered series — the unit
// the JSON endpoint, the SSE stream and the METRICS wire payload all
// carry. Fields are exported for JSON; use the lookup helpers to assert
// on individual series.
type Snapshot struct {
	// Version is the schema revision (SnapshotVersion).
	Version int `json:"version"`
	// TakenUnixNano is when the snapshot was taken.
	TakenUnixNano int64 `json:"taken_unix_nano"`
	// UptimeSeconds is time since the registry was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Counters, Gauges and Histograms hold every registered series in
	// registration order.
	Counters   []CounterValue      `json:"counters"`
	Gauges     []GaugeValue        `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot reads every registered series. Hot paths are never blocked:
// counters and gauges are atomic reads through the registered closures,
// histograms copy their bucket arrays.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	hooks := r.hooks
	counters := r.counters
	gauges := r.gauges
	hists := r.hists
	started := r.started
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	s := &Snapshot{
		Version:       SnapshotVersion,
		TakenUnixNano: time.Now().UnixNano(),
		UptimeSeconds: time.Since(started).Seconds(),
		Counters:      make([]CounterValue, 0, len(counters)),
		Gauges:        make([]GaugeValue, 0, len(gauges)),
		Histograms:    make([]HistogramSnapshot, 0, len(hists)),
	}
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Labels: c.labels, Value: c.fn()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Labels: g.labels, Value: g.fn()})
	}
	for _, hs := range hists {
		snap := hs.h.Snapshot()
		snap.Name, snap.Labels = hs.name, hs.labels
		s.Histograms = append(s.Histograms, snap)
	}
	return s
}

// Counter looks up a counter's snapshot value by name and labels.
func (s *Snapshot) Counter(name string, labels ...Label) (uint64, bool) {
	ls := renderLabels(labels)
	for _, c := range s.Counters {
		if c.Name == name && c.Labels == ls {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge looks up a gauge's snapshot value by name and labels.
func (s *Snapshot) Gauge(name string, labels ...Label) (float64, bool) {
	ls := renderLabels(labels)
	for _, g := range s.Gauges {
		if g.Name == name && g.Labels == ls {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram looks up a histogram snapshot by name and labels.
func (s *Snapshot) Histogram(name string, labels ...Label) (HistogramSnapshot, bool) {
	ls := renderLabels(labels)
	for _, h := range s.Histograms {
		if h.Name == name && h.Labels == ls {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// sample renders one exposition line: `name{labels} value`, or
// `name value` for an unlabeled series.
func sample(name, labels, val string) string {
	if labels == "" {
		return name + " " + val
	}
	return name + "{" + labels + "} " + val
}

// WriteText renders the snapshot for a human reader, one line per series
// as `name{labels} value`: counters, then gauges (exact, without an
// exponent), then histograms, each in registration order, a histogram's
// value being its HistogramSnapshot digest. A snapshot decoded from a
// METRICS payload renders exactly like the registry's own.
func (s *Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	for _, c := range s.Counters {
		b.WriteString(sample(c.Name, c.Labels, strconv.FormatUint(c.Value, 10)) + "\n")
	}
	for _, g := range s.Gauges {
		b.WriteString(sample(g.Name, g.Labels, strconv.FormatFloat(g.Value, 'f', -1, 64)) + "\n")
	}
	for _, h := range s.Histograms {
		b.WriteString(sample(h.Name, h.Labels, h.String()) + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promGroup orders series of one metric name together, as the Prometheus
// exposition format requires (HELP/TYPE once, then every labeled sample).
type promGroup struct {
	name, kind string
	lines      []string
}

// helpText maps every registered metric name to its HELP string — the
// first registrant's, since the exposition format carries one per name.
// Help lives in the registry's series table rather than the Snapshot, so
// the snapshot's JSON schema stays what SnapshotVersion pins.
func (r *Registry) helpText() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	help := make(map[string]string)
	add := func(name, h string) {
		if _, ok := help[name]; !ok {
			help[name] = h
		}
	}
	for _, c := range r.counters {
		add(c.name, c.help)
	}
	for _, g := range r.gauges {
		add(g.name, g.help)
	}
	for _, h := range r.hists {
		add(h.name, h.help)
	}
	return help
}

// PromText renders a Snapshot in the Prometheus text exposition format:
// counters and gauges as single samples, histograms as cumulative
// le-labeled buckets with _sum and _count. Series of one name are grouped
// under one HELP/TYPE header regardless of registration interleaving.
// The snapshot hooks run once per call, inside Snapshot.
func (r *Registry) PromText() string {
	s := r.Snapshot()
	help := r.helpText()

	var order []*promGroup
	groups := map[string]*promGroup{}
	grp := func(name, kind string) *promGroup {
		g, ok := groups[name]
		if !ok {
			g = &promGroup{name: name, kind: kind}
			groups[name] = g
			order = append(order, g)
		}
		return g
	}
	for _, c := range s.Counters {
		g := grp(c.Name, "counter")
		g.lines = append(g.lines, sample(c.Name, c.Labels, strconv.FormatUint(c.Value, 10)))
	}
	for _, gg := range s.Gauges {
		g := grp(gg.Name, "gauge")
		g.lines = append(g.lines, sample(gg.Name, gg.Labels, strconv.FormatFloat(gg.Value, 'g', -1, 64)))
	}
	for _, hs := range s.Histograms {
		g := grp(hs.Name, "histogram")
		ls := hs.Labels
		if ls != "" {
			ls += ","
		}
		cum := uint64(0)
		for i, c := range hs.Counts {
			cum += c
			le := strconv.FormatFloat(bounds[i], 'g', -1, 64)
			g.lines = append(g.lines, sample(hs.Name+"_bucket", ls+`le="`+le+`"`, strconv.FormatUint(cum, 10)))
		}
		g.lines = append(g.lines, sample(hs.Name+"_bucket", ls+`le="+Inf"`, strconv.FormatUint(hs.Count, 10)))
		g.lines = append(g.lines, sample(hs.Name+"_sum", hs.Labels, strconv.FormatFloat(float64(hs.SumNanos)/1e9, 'g', -1, 64)))
		g.lines = append(g.lines, sample(hs.Name+"_count", hs.Labels, strconv.FormatUint(hs.Count, 10)))
	}

	var b strings.Builder
	for _, g := range order {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", g.name, help[g.name], g.name, g.kind)
		for _, line := range g.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// wireMagic opens the METRICS wire payload, ahead of the JSON snapshot:
// "TensorDIMM Metrics Snapshot", revision 1.
const wireMagic = "TDMS1\n"

// EncodeWirePayload builds the METRICS wire op's response payload: the
// snapshot magic followed by the registry's versioned JSON snapshot and
// nothing else. A nil registry encodes an empty (but well-formed)
// snapshot so the payload shape is uniform for every server.
func EncodeWirePayload(reg *Registry) []byte {
	var snap *Snapshot
	if reg != nil {
		snap = reg.Snapshot()
	} else {
		snap = &Snapshot{Version: SnapshotVersion, TakenUnixNano: time.Now().UnixNano()}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		// Only a gauge reading NaN or Inf cannot marshal; ship an empty
		// snapshot rather than fail the metrics fetch.
		data, _ = json.Marshal(&Snapshot{Version: SnapshotVersion, TakenUnixNano: snap.TakenUnixNano})
	}
	return append([]byte(wireMagic), data...)
}

// ErrNoSnapshot is returned by DecodeWirePayload for a payload that does
// not open with the snapshot magic.
var ErrNoSnapshot = errors.New("telemetry: metrics payload has no snapshot section")

// DecodeWirePayload decodes a METRICS response payload into the server's
// snapshot. Every peer that passes the wire handshake stamps the snapshot
// magic, so a payload without it is ErrNoSnapshot; anything after the
// JSON document (the text report a revision-6 server appended) is an
// error, as is a snapshot version other than SnapshotVersion.
func DecodeWirePayload(payload []byte) (*Snapshot, error) {
	rest, ok := bytes.CutPrefix(payload, []byte(wireMagic))
	if !ok {
		return nil, ErrNoSnapshot
	}
	var snap Snapshot
	if err := json.Unmarshal(rest, &snap); err != nil {
		return nil, fmt.Errorf("telemetry: metrics snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("telemetry: metrics snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	return &snap, nil
}

// sortedSeriesNames returns every registered series key, sorted — a debug
// helper for the admin index page.
func (r *Registry) sortedSeriesNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.names))
	for n := range r.names {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
