package main

import (
	"fmt"
	"math"
	gort "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tensordimm/internal/netclient"
	"tensordimm/internal/runtime"
)

// generators is G: enough closed-loop generators to saturate the stack's
// bottleneck without outnumbering the cores they share with it.
func generators() int { return min(2, gort.NumCPU()) }

// budget decides when a load phase ends: after a fixed number of reads
// (warm-up, serial trace pass) or at a deadline (the measured interval).
type budget struct {
	deadline time.Time    // zero = count mode
	left     atomic.Int64 // reads still to issue, count mode
}

// take reports whether one more read may be issued at time now.
func (b *budget) take(now time.Time) bool {
	if b.deadline.IsZero() {
		return b.left.Add(-1) >= 0
	}
	return now.Before(b.deadline)
}

// recorder is one generator's private result store. Latencies go into a
// fixed-capacity array faulted in before the interval starts, so the
// measured loop allocates nothing and RSS does not depend on throughput.
type recorder struct {
	t0      time.Time
	end     time.Time
	lat     []uint32 // caller-observed latency of each completed read, ns
	n       int
	windows []uint32 // reads completed per one-second window
	failed  uint64
	dropped uint64 // samples beyond the array's capacity
}

// newRecorder sizes a recorder for `seconds` of at most perSec reads each
// and touches every page of it.
func newRecorder(seconds, perSec int) *recorder {
	r := &recorder{lat: make([]uint32, seconds*perSec), windows: make([]uint32, seconds)}
	for i := range r.lat {
		r.lat[i] = 1
	}
	return r
}

// arm starts a measuring interval of the recorder's full length at t0.
func (r *recorder) arm(t0 time.Time) {
	r.t0, r.end = t0, t0.Add(time.Duration(len(r.windows))*time.Second)
	r.n, r.failed, r.dropped = 0, 0, 0
	clear(r.windows)
}

// observe records one read that was issued at start and finished at now.
// Reads finishing after the interval (at most one window's worth of
// stragglers) are not part of it.
func (r *recorder) observe(start, now time.Time, err error) {
	if r == nil {
		return
	}
	if err != nil {
		r.failed++
		return
	}
	if !now.Before(r.end) {
		return
	}
	if r.n == len(r.lat) {
		r.dropped++
		return
	}
	d := now.Sub(start)
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	r.lat[r.n] = uint32(d)
	r.n++
	r.windows[now.Sub(r.t0)/time.Second]++
}

// feedCursor walks one generator through the shared, read-only feed.
type feedCursor struct {
	feed [][][]int
	at   int
}

func (c *feedCursor) next() [][]int {
	rows := c.feed[c.at%len(c.feed)]
	c.at++
	return rows
}

// runPipelined is one pipelined generator: it keeps `window` reads in
// flight on its own connection with StartEmbed, reaps them in issue order
// and re-issues into the freed slot. Latency is StartEmbed entry to result.
func runPipelined(cl *netclient.Client, cur *feedCursor, batch, width, window int, b *budget, rec *recorder) error {
	type slot struct {
		ca    *netclient.Call
		start time.Time
		dst   []float32
	}
	slots := make([]slot, window)
	for i := range slots {
		slots[i].dst = make([]float32, batch*width)
	}
	issue := func(s *slot, now time.Time) error {
		ca, err := cl.StartEmbed(s.dst, cur.next(), batch)
		if err != nil {
			return fmt.Errorf("start read: %w", err)
		}
		s.ca, s.start = ca, now
		return nil
	}
	// drain reaps whatever is still in flight after a failed issue.
	drain := func() {
		for i := range slots {
			if s := &slots[i]; s.ca != nil {
				<-s.ca.Done()
				cl.Finish(s.ca)
				s.ca = nil
			}
		}
	}
	now := time.Now()
	inflight := 0
	for i := range slots {
		if !b.take(now) {
			break
		}
		if err := issue(&slots[i], now); err != nil {
			drain()
			return err
		}
		inflight++
	}
	for head := 0; inflight > 0; head = (head + 1) % window {
		s := &slots[head]
		err := <-s.ca.Done()
		now = time.Now()
		if err == nil {
			s.dst = s.ca.Dst()
		}
		cl.Finish(s.ca)
		s.ca = nil
		rec.observe(s.start, now, err)
		if !b.take(now) {
			inflight--
			continue
		}
		if err := issue(s, now); err != nil {
			drain()
			return err
		}
	}
	return nil
}

// embedFunc is the in-process read entry point (serve.Server.EmbedInto and
// friends).
type embedFunc func(dst []float32, perTableRows [][]int, batch int) ([]float32, error)

// runDirect is one closed-loop generator calling an in-process entry
// point: the next read starts when the previous one returned.
func runDirect(embed embedFunc, cur *feedCursor, batch, width int, b *budget, rec *recorder) {
	dst := make([]float32, batch*width)
	for now := time.Now(); b.take(now); {
		out, err := embed(dst, cur.next(), batch)
		end := time.Now()
		if err == nil {
			dst = out
		}
		rec.observe(now, end, err)
		now = end
	}
}

// writerStats is what the paced writer measured.
type writerStats struct {
	sent, failed uint64
	lat          []uint32 // due time to acknowledgement, ns
	n            int
	maxLag       time.Duration // latest start after its due time
}

// runWriter issues one update batch every 1/hz seconds on a fixed schedule
// from t0 until stop is set or the deadline passes, cycling through the
// pre-generated updates. It is open loop: when an update overruns its
// period the next one goes out at once, and every latency is taken from the
// due time, so a stall is charged to every update it delayed. onAck runs
// after each acknowledged update, in acknowledgement order.
func runWriter(update func([]runtime.TableUpdate) error, ups [][]runtime.TableUpdate, hz int,
	t0, deadline time.Time, stop *atomic.Bool, onAck func([]runtime.TableUpdate), ws *writerStats) {

	period := time.Second / time.Duration(hz)
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * period)
		if !deadline.IsZero() && !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if stop.Load() {
			break
		}
		if lag := time.Since(due); lag > ws.maxLag {
			ws.maxLag = lag
		}
		up := ups[k%len(ups)]
		err := update(up)
		ws.sent++
		if err != nil {
			ws.failed++
			continue
		}
		if onAck != nil {
			onAck(up)
		}
		if ws.n < len(ws.lat) {
			d := time.Since(due)
			if d > math.MaxUint32 {
				d = math.MaxUint32
			}
			ws.lat[ws.n] = uint32(d)
			ws.n++
		}
	}
}

// loadResult is one load phase's digest.
type loadResult struct {
	seconds        float64       // length of the measured interval
	reads          int           // reads completed inside the interval
	failed         uint64        // reads answered with an error
	dropped        uint64        // samples that did not fit the recorders
	sorted         []uint32      // all read latencies, ascending, ns
	windowCounts   []float64     // reads completed in each one-second window
	cpu            time.Duration // process CPU time over the interval
	writer         writerStats
	generatorError error
}

func (r *loadResult) reqPerS() float64 { return median(r.windowCounts) }

// rusage reads the process's resource usage (zero if the kernel refuses).
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (ru_maxrss is KiB on Linux).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// load is a stack's traffic: G generators plus, on the read/write
// workloads, the paced writer. recs carries one recorder per generator for
// a measured interval and is nil for a fixed-count phase of `count` reads.
// The error is a failure to start; a generator that stopped early is in the
// result.
func (st *stack) load(recs []*recorder, count int, wlat []uint32) (*loadResult, error) {
	d := st.def
	g := generators()
	b := &budget{}
	res := &loadResult{}
	res.writer.lat = wlat

	// Dial before the clock starts: connection set-up is not load.
	clients := make([]*netclient.Client, 0, g+1)
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	dial := func() (*netclient.Client, error) {
		cl, err := st.dial()
		if err == nil {
			clients = append(clients, cl)
		}
		return cl, err
	}
	var genClients []*netclient.Client
	if st.addr != "" {
		for i := 0; i < g; i++ {
			cl, err := dial()
			if err != nil {
				return nil, err
			}
			genClients = append(genClients, cl)
		}
	}
	var update func([]runtime.TableUpdate) error
	if d.updHz > 0 {
		// The writer has a connection of its own.
		cl, err := dial()
		if err != nil {
			return nil, err
		}
		update = cl.Update
	}

	t0 := time.Now()
	var deadline time.Time
	if recs != nil {
		deadline = t0.Add(time.Duration(len(recs[0].windows)) * time.Second)
		b.deadline = deadline
		for _, r := range recs {
			r.arm(t0)
		}
	} else {
		b.left.Store(int64(count))
	}
	cpu0 := cpuTime()

	var stop atomic.Bool
	var wwg sync.WaitGroup
	if d.updHz > 0 {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			runWriter(update, st.updates, d.updHz, t0, deadline, &stop, st.onAck, &res.writer)
		}()
	}
	errs := make([]error, g)
	var gwg sync.WaitGroup
	for i := 0; i < g; i++ {
		var rec *recorder
		if recs != nil {
			rec = recs[i]
		}
		cur := &feedCursor{feed: st.feed, at: i * len(st.feed) / g}
		gwg.Add(1)
		go func(i int) {
			defer gwg.Done()
			if st.addr != "" {
				errs[i] = runPipelined(genClients[i], cur, d.batch, st.width(), d.window, b, rec)
			} else {
				runDirect(st.embed, cur, d.batch, st.width(), b, rec)
			}
		}(i)
	}
	gwg.Wait()
	res.cpu = cpuTime() - cpu0
	stop.Store(true)
	wwg.Wait()

	for _, err := range errs {
		if err != nil && res.generatorError == nil {
			res.generatorError = err
		}
	}
	if recs == nil {
		return res, nil
	}
	res.seconds = float64(len(recs[0].windows))
	wins := make([][]uint32, len(recs))
	for i, r := range recs {
		res.reads += r.n
		res.failed += r.failed
		res.dropped += r.dropped
		wins[i] = r.windows
	}
	res.sorted = make([]uint32, 0, res.reads)
	for _, r := range recs {
		res.sorted = append(res.sorted, r.lat[:r.n]...)
	}
	slices.Sort(res.sorted)
	res.windowCounts = windowCounts(wins)
	return res, nil
}
