package main

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tensordimm/internal/runtime"
)

func TestPercentile(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]uint32{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spreadFrac([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spreadFrac(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWindowMedianSumsGenerators(t *testing.T) {
	counts := windowCounts([][]uint32{{10, 20, 30, 40}, {1, 2, 3, 400}})
	want := []float64{11, 22, 33, 440}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("windowCounts = %v, want %v", counts, want)
		}
	}
	// One stalled window does not move the median.
	if got := median(counts); got != 27.5 {
		t.Errorf("window median = %v, want 27.5", got)
	}
}

func TestRecorderKeepsOnlyTheInterval(t *testing.T) {
	r := newRecorder(2, 4)
	t0 := time.Now()
	r.arm(t0)
	r.observe(t0, t0.Add(100*time.Millisecond), nil)                // window 0
	r.observe(t0, t0.Add(1500*time.Millisecond), nil)               // window 1
	r.observe(t0, t0.Add(2500*time.Millisecond), nil)               // after the interval
	r.observe(t0, t0.Add(200*time.Millisecond), errors.New("shed")) // failed: no latency
	if r.n != 2 || r.windows[0] != 1 || r.windows[1] != 1 || r.failed != 1 {
		t.Errorf("recorder kept n=%d windows=%v failed=%d", r.n, r.windows, r.failed)
	}
	if r.lat[1] != uint32(1500*time.Millisecond) {
		t.Errorf("latency = %d ns", r.lat[1])
	}
}

func TestSpanParentsAndSelfTime(t *testing.T) {
	// One fleet read: the client span encloses the router's, which encloses
	// two parallel replica calls — the second finishes inside the first, yet
	// is its sibling, not its child.
	spans := linkSpans([]span{
		{kind: spanReplicaEmbed, StartNs: 30, EndNs: 50},
		{kind: spanClientEmbed, StartNs: 0, EndNs: 100},
		{kind: spanReplicaEmbed, StartNs: 20, EndNs: 70},
		{kind: spanRemoteEmbed, StartNs: 10, EndNs: 90},
		{kind: spanClientEmbed, StartNs: 200, EndNs: 260},
		{kind: spanRemoteEmbed, StartNs: 210, EndNs: 250},
	})
	byStart := map[int64]span{}
	for _, s := range spans {
		byStart[s.StartNs] = s
	}
	client, router := byStart[0], byStart[10]
	if client.Parent != 0 || router.Parent != client.Span {
		t.Fatalf("client parent %d, router parent %d (client is span %d)", client.Parent, router.Parent, client.Span)
	}
	for _, at := range []int64{20, 30} {
		if got := byStart[at].Parent; got != router.Span {
			t.Errorf("replica span at %d has parent %d, want the router's %d", at, got, router.Span)
		}
	}
	if byStart[200].Trace == client.Trace || byStart[210].Trace != byStart[200].Trace {
		t.Errorf("traces: first %d, second %d/%d", client.Trace, byStart[200].Trace, byStart[210].Trace)
	}
	self := selfTimes(spans)
	if got := self[client.Span]; got != 20 { // 100 - (90-10)
		t.Errorf("client self time %d, want 20", got)
	}
	if got := self[router.Span]; got != 30 { // 80 - |[20,70]|: the children overlap
		t.Errorf("router self time %d, want 30", got)
	}
	if got := self[byStart[20].Span]; got != 50 {
		t.Errorf("leaf self time %d, want its duration 50", got)
	}
}

func TestWriterPacing(t *testing.T) {
	ups := [][]runtime.TableUpdate{{{Table: 0}}}
	const hz = 200
	// An instant backend: the writer holds its schedule.
	ws := writerStats{lat: make([]uint32, 1024)}
	var stop atomic.Bool
	acked := 0
	t0 := time.Now()
	runWriter(func([]runtime.TableUpdate) error { return nil }, ups, hz, t0, t0.Add(250*time.Millisecond),
		&stop, func([]runtime.TableUpdate) { acked++ }, &ws)
	if ws.sent != 50 || ws.n != 50 || acked != 50 || ws.failed != 0 {
		t.Errorf("sent %d recorded %d acked %d failed %d, want 50 each and none failed", ws.sent, ws.n, acked, ws.failed)
	}

	// One 40 ms stall: the schedule is fixed, so every update still goes
	// out, and the ones queued behind the stall are charged for it — their
	// latency runs from the due time, not from when they were sent.
	ws = writerStats{lat: make([]uint32, 1024)}
	calls := 0
	t0 = time.Now()
	runWriter(func([]runtime.TableUpdate) error {
		if calls++; calls == 10 {
			time.Sleep(40 * time.Millisecond)
		}
		return nil
	}, ups, hz, t0, t0.Add(250*time.Millisecond), &stop, nil, &ws)
	if ws.sent != 50 {
		t.Errorf("sent %d updates through a stall, want all 50", ws.sent)
	}
	if ws.maxLag < 20*time.Millisecond {
		t.Errorf("latest start %v after its due time; the stall should show", ws.maxLag)
	}
	late := 0
	for _, d := range ws.lat[:ws.n] {
		if time.Duration(d) > 15*time.Millisecond {
			late++
		}
	}
	if late < 4 {
		t.Errorf("%d updates charged for the stall, want the stalled one and those queued behind it", late)
	}

	// A failed update is counted, not acknowledged.
	ws = writerStats{lat: make([]uint32, 16)}
	t0 = time.Now()
	runWriter(func([]runtime.TableUpdate) error { return errors.New("down") }, ups, hz, t0, t0.Add(20*time.Millisecond),
		&stop, func([]runtime.TableUpdate) { t.Error("acknowledged a failed update") }, &ws)
	if ws.failed != ws.sent || ws.n != 0 {
		t.Errorf("failed %d of %d, %d latencies", ws.failed, ws.sent, ws.n)
	}
}

func TestSpecMatchesBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if d := workloads[i]; w.Name != d.name || w.Why != d.why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, w.Name, w.Why, d.name, d.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d defined", len(bf.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end %d: file has %+v, code has %+v", i, m, want)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be listed and carry the largest bound (%v)", maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d defined", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: file has %+v, code has %+v", i, m, want)
		}
	}
}

// smoke runs one workload for a second with the warm-up shrunk.
func smoke(t *testing.T, d *workloadDef, traced, corrupt bool) *report {
	t.Helper()
	e := &env{seed: 7, outDir: t.TempDir(), quick: true, corrupt: corrupt}
	var log bytes.Buffer
	rep, err := runWorkload(e, d, 1, traced, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", d.name, err, log.String())
	}
	if raceEnabled {
		// The instrumented stack cannot hold the writer's rate; every other
		// check still applies.
		rep.problems = slices.DeleteFunc(rep.problems, func(p string) bool { return strings.HasPrefix(p, "writer completed") })
	}
	return rep
}

// applies says which per-layer metrics a workload reports; the rest are
// printed as n/a.
func applies(d *workloadDef, name string) bool {
	net, fleet := d.window > 0, d.name == "fleet_durable_rw"
	clustered := net && !fleet
	switch name {
	case "harness.upd_per_s", "harness.upd_lat_p50_us", "harness.upd_lat_p99_us":
		return d.updHz > 0
	case "cluster.apply_updates_p50_us":
		return clustered && d.updHz > 0
	case "serve.mean_batch", "serve.queue_wait_p50_us":
		return d.name != "net_hot_read" // every read is a cache hit: the shard servers run no batch
	}
	switch layer, _, _ := strings.Cut(name, "."); layer {
	case "netclient", "netserve":
		return net
	case "cluster":
		return clustered
	case "remote", "persist":
		return fleet
	}
	return true
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second, traced and untraced")
	}
	for _, d := range workloads {
		d := d
		t.Run(d.name, func(t *testing.T) {
			rep := smoke(t, d, false, false)
			if len(rep.problems) > 0 {
				t.Fatalf("untraced run failed its checks: %v", rep.problems)
			}
			if len(rep.metrics) != len(endToEnd) {
				t.Errorf("untraced run reported %d metrics, want the %d end-to-end ones", len(rep.metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v, ok := rep.metrics[m.name]; !ok || v <= 0 {
					t.Errorf("%s = %v (reported %v): end-to-end metrics are never 0", m.name, v, ok)
				}
			}
			var out bytes.Buffer
			printReport(&out, rep)
			res, err := lastResult(out.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
				t.Errorf("result object %+v", res)
			}

			rep = smoke(t, d, true, false)
			if len(rep.problems) > 0 {
				t.Fatalf("traced run failed its checks: %v", rep.problems)
			}
			known := map[string]bool{}
			for _, m := range perLayer {
				known[m.name] = true
				if _, ok := rep.metrics[m.name]; ok != applies(d, m.name) {
					t.Errorf("%s reported: %v, applies: %v", m.name, ok, applies(d, m.name))
				}
			}
			for name := range rep.metrics {
				if !known[name] {
					t.Errorf("traced run reported %s, which is not a per-layer metric", name)
				}
			}
			if rep.metrics["harness.verify_checked"] != 2*verifyRequests || rep.metrics["harness.verify_mismatch"] != 0 {
				t.Errorf("verified %v replies, %v mismatches", rep.metrics["harness.verify_checked"], rep.metrics["harness.verify_mismatch"])
			}
			out.Reset()
			printReport(&out, rep)
			if res, err = lastResult(out.Bytes()); err != nil || len(res.Metrics) != len(perLayer) {
				t.Errorf("traced result object carries %d metrics (%v), want all %d", len(res.Metrics), err, len(perLayer))
			}
		})
	}
}

func TestCorruptedGoldenFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	rep := smoke(t, findWorkload("net_hot_read"), false, true)
	if len(rep.problems) == 0 {
		t.Fatal("a run whose expected values were corrupted passed: the correctness gate is not live")
	}
	var out bytes.Buffer
	printReport(&out, rep)
	if res, err := lastResult(out.Bytes()); err != nil || res.Correct {
		t.Errorf("result object says correct (%v)", err)
	}
}
