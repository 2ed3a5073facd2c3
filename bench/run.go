package main

import (
	"fmt"
	"io"
	gort "runtime"
	"runtime/debug"
	"slices"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netserve"
	"tensordimm/internal/remote"
	"tensordimm/internal/serve"
)

// results maps a metric name to its value. A per-layer metric that does not
// apply to the workload is absent.
type results map[string]float64

// report is one run of one workload.
type report struct {
	workload  string
	traced    bool
	metrics   results
	attempted uint64
	failed    uint64
	problems  []string // failed validity checks and mismatches; empty = correct
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setupRepeats is how often the untraced run sets the stack up: setup_s is
// the median, so one slow set-up does not read as a regression.
const setupRepeats = 3

// setUp is everything before the first measured read: generate inputs,
// build and deploy the model, listen and dial, verify 256 reads against
// the golden model, and the fixed-count warm-up.
func setUp(e *env, d *workloadDef, tally *verifyTally) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := buildStack(e, d)
	if err != nil {
		return nil, 0, fmt.Errorf("build: %w", err)
	}
	if err := st.verify(e, "set-up", tally); err != nil {
		st.close()
		return nil, 0, err
	}
	warm := d.warmup
	if e.quick {
		warm = max(warm/100, 2*generators()*max(d.window, 1))
	}
	lr, err := st.load(nil, warm, nil)
	if err == nil {
		err = lr.generatorError
	}
	if err != nil {
		st.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return st, time.Since(start), nil
}

// counters is a snapshot of every public counter the stack exposes, taken
// before and after an interval.
type counters struct {
	cluster cluster.Metrics
	front   netserve.Metrics
	router  remote.Metrics
	serve   []serve.Metrics
}

func (st *stack) counters() counters {
	var c counters
	if st.cluster != nil {
		c.cluster = st.cluster.Metrics()
		for _, sh := range c.cluster.Shards {
			c.serve = append(c.serve, sh.Serve)
		}
	}
	if st.front != nil {
		c.front = st.front.Metrics()
	}
	if st.router != nil {
		c.router = st.router.Metrics()
	}
	for _, sh := range st.replicas {
		c.serve = append(c.serve, sh.srv.Metrics())
	}
	if st.local != nil {
		c.serve = append(c.serve, st.local.srv.Metrics())
	}
	return c
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// checkInterval applies the validity checks of a measured interval and, on
// the traced run, turns the counter deltas into per-layer metrics.
func (st *stack) checkInterval(rep *report, lr *loadResult, a, b counters, out results) {
	d := st.def
	if lr.generatorError != nil {
		rep.fail("generator stopped: %v", lr.generatorError)
	}
	if lr.dropped > 0 {
		rep.fail("%d latency samples did not fit the pre-sized recorders", lr.dropped)
	}
	if lr.reads == 0 {
		rep.fail("no read completed")
	}
	hits, misses := b.cluster.CacheHits-a.cluster.CacheHits, b.cluster.CacheMisses-a.cluster.CacheMisses
	if rate := ratio(hits, hits+misses); rate < d.minHitRate {
		rep.fail("cluster.cache_hit_rate %.5f < %v: the hot set no longer fits the cache", rate, d.minHitRate)
	}
	shed, expired := b.front.Shed-a.front.Shed, b.front.Expired-a.front.Expired
	if shed != 0 || expired != 0 {
		rep.fail("netserve shed %d and expired %d requests: the workload must run below admission limits", shed, expired)
	}
	if d.updHz > 0 {
		// The writer must hold its schedule: an update rate below the
		// definition's means the read path was measured against less write
		// traffic than the workload states. A quarter of a second of backlog
		// at the deadline (one snapshot fsync) is not that.
		want := float64(d.updHz) * (0.97*lr.seconds - 0.25)
		if got := float64(lr.writer.n); got < want {
			rep.fail("writer completed %.0f updates in %.0fs, the workload's %d/s needs %.0f (latest start %v after its due time)",
				got, lr.seconds, d.updHz, want, lr.writer.maxLag)
		}
	}
	if out == nil {
		return
	}

	out["harness.lat_p99_us"] = pctUs(lr.sorted, 99)
	out["harness.lat_p999_us"] = pctUs(lr.sorted, 99.9)
	out["harness.cpu_us_per_req"] = float64(lr.cpu.Microseconds()) / float64(max(lr.reads, 1))
	out["harness.window_rps_iqr_frac"] = spreadFrac(lr.windowCounts)
	if d.updHz > 0 {
		ws := lr.writer.lat[:lr.writer.n]
		slices.Sort(ws)
		out["harness.upd_per_s"] = float64(lr.writer.n) / lr.seconds
		out["harness.upd_lat_p50_us"] = pctUs(ws, 50)
		out["harness.upd_lat_p99_us"] = pctUs(ws, 99)
	}
	if st.front != nil {
		out["netserve.in_coalesce"] = ratio(b.front.BatchedIn-a.front.BatchedIn, b.front.BatchesIn-a.front.BatchesIn)
		out["netserve.out_coalesce"] = ratio(b.front.BatchedOut-a.front.BatchedOut, b.front.BatchesOut-a.front.BatchesOut)
		out["netserve.exec_p99_us"] = b.front.Latency.P99 * 1e6
		out["netserve.shed"] = float64(shed)
		out["netserve.expired"] = float64(expired)
	}
	if st.cluster != nil {
		reqs := b.cluster.Requests - a.cluster.Requests
		var gathered, subs uint64
		for i := range b.cluster.Shards {
			gathered += b.cluster.Shards[i].RowsGathered - a.cluster.Shards[i].RowsGathered
			subs += b.cluster.Shards[i].SubRequests - a.cluster.Shards[i].SubRequests
		}
		out["cluster.cache_hit_rate"] = ratio(hits, hits+misses)
		out["cluster.invalidations_per_s"] = float64(b.cluster.Invalidations-a.cluster.Invalidations) / lr.seconds
		out["cluster.rows_gathered_per_req"] = ratio(gathered, reqs)
		out["cluster.subreqs_per_req"] = ratio(subs, reqs)
	}
	if st.router != nil {
		reqs := b.router.Requests - a.router.Requests
		out["remote.hedges_per_kreq"] = 1000 * ratio(b.router.Hedges-a.router.Hedges, reqs)
		out["remote.hedge_wins"] = float64(b.router.HedgeWins - a.router.HedgeWins)
		out["remote.failovers"] = float64(b.router.Failovers - a.router.Failovers)
		out["remote.snapshots"] = float64(b.router.Snapshots - a.router.Snapshots)
	}
	// Node-level batching: every serve.Server in the stack, summed.
	var samples, batches uint64
	var waits []float64
	for i := range b.serve {
		samples += b.serve[i].Samples - a.serve[i].Samples
		batches += b.serve[i].Batches - a.serve[i].Batches
		waits = append(waits, b.serve[i].QueueLatency.P50*1e6)
	}
	if batches > 0 {
		out["serve.mean_batch"] = ratio(samples, batches)
		out["serve.queue_wait_p50_us"] = median(waits)
	}
}

// measure runs the stack's load for the recorders' interval and applies the
// interval's validity checks.
func (st *stack) measure(rep *report, recs []*recorder, wlat []uint32, out results) (*loadResult, error) {
	before := st.counters()
	lr, err := st.load(recs, 0, wlat)
	if err != nil {
		return nil, err
	}
	after := st.counters()
	rep.attempted += uint64(lr.reads) + lr.failed + lr.writer.sent
	rep.failed += lr.failed + lr.writer.failed
	st.checkInterval(rep, lr, before, after, out)
	return lr, nil
}

// newRecorders pre-faults one recorder per generator plus the writer's.
func newRecorders(d *workloadDef, seconds int) ([]*recorder, []uint32) {
	recs := make([]*recorder, generators())
	for i := range recs {
		recs[i] = newRecorder(seconds, d.rateCap)
	}
	var wlat []uint32
	if d.updHz > 0 {
		wlat = make([]uint32, 2*seconds*d.updHz)
		for i := range wlat {
			wlat[i] = 1
		}
	}
	return recs, wlat
}

// runUntraced is the end-to-end run: no wrapper installed, nothing recorded
// but what the caller of the stack sees.
func runUntraced(e *env, d *workloadDef, seconds int, log io.Writer) (*report, error) {
	rep := &report{workload: d.name, metrics: results{}}
	recs, wlat := newRecorders(d, seconds)
	var tally verifyTally

	repeats := setupRepeats
	if e.quick {
		repeats = 1
	}
	var st *stack
	var setups []float64
	for i := 0; i < repeats; i++ {
		if st != nil {
			// Give the previous set-up's memory back before the next one
			// starts, so rss_peak_mb is one stack's peak, not three.
			st.close()
			st = nil
			gort.GC()
			debug.FreeOSMemory()
		}
		s, took, err := setUp(e, d, &tally)
		if err != nil {
			return nil, err
		}
		st = s
		setups = append(setups, took.Seconds())
	}
	defer st.close()
	fmt.Fprintf(log, "# set-up times %.3v s\n", setups)
	if st.dataDir != "" {
		fmt.Fprintf(log, "# data dir %s (%s)\n", st.dataDir, st.dataFS)
	}

	lr, err := st.measure(rep, recs, wlat, nil)
	if err != nil {
		return nil, err
	}
	if err := st.verify(e, "quiescence", &tally); err != nil {
		return nil, err
	}
	if tally.mismatch > 0 {
		rep.fail("%d of %d verified replies differ from the golden model; first: %s", tally.mismatch, tally.checked, tally.first)
	}
	fmt.Fprintf(log, "# %s: %d reads in %ds (%d failed), %d updates (%d failed, latest start %v late), %d replies verified\n",
		d.name, lr.reads, seconds, lr.failed, lr.writer.sent, lr.writer.failed, lr.writer.maxLag, tally.checked)
	fmt.Fprintf(log, "# latency samples: %d (%d beyond p90); reads per one-second window %.0f\n",
		len(lr.sorted), len(lr.sorted)/10, lr.windowCounts)

	m := rep.metrics
	m["setup_s"] = median(setups)
	m["req_per_s"] = lr.reqPerS()
	m["lat_p50_us"] = pctUs(lr.sorted, 50)
	m["lat_p90_us"] = pctUs(lr.sorted, 90)
	m["rss_peak_mb"] = peakRSSMiB()
	return rep, nil
}
