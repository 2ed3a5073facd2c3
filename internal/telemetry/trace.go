package telemetry

import (
	"sync"
	"time"
)

// MaxHops is the fixed per-span hop capacity. Spans are value structs
// embedded in pooled request objects, so the hop array is a fixed-size
// slot, not a slice — a tracer declares at most MaxHops named stages.
const MaxHops = 8

// DefaultSlowThreshold is the slow-ring admission threshold used when a
// tracer is created with threshold 0.
const DefaultSlowThreshold = time.Millisecond

// slowRingLen bounds the shared ring of recent slow requests. The ring
// is a fixed array of slots written in rotation; inserting copies into a
// preallocated slot under a mutex — slow requests are rare by definition,
// so the lock is off the hot path and the insert never allocates.
const slowRingLen = 64

// Span records per-hop stage timings for one request: Begin stamps the
// start, each Mark attributes the time since the previous mark to a named
// hop, and Tracer.Finish totals it and feeds the slow ring. A Span is a
// plain value struct designed to be embedded in an already-pooled request
// object (serve's request, cluster's router scratch, netserve's task) so
// tracing adds zero allocation; Reset it when the owner is recycled.
// A Span is owned by one request at a time and is not safe for concurrent
// use — the same single-owner discipline as the object it lives in.
type Span struct {
	start, last time.Time
	hops        [MaxHops]int64
}

// Begin starts the span now.
func (sp *Span) Begin() { sp.BeginAt(time.Now()) }

// BeginAt starts the span at t — used when the owning layer already
// stamped an arrival time (e.g. netserve's task admission).
func (sp *Span) BeginAt(t time.Time) {
	sp.hops = [MaxHops]int64{}
	sp.start = t
	sp.last = t
}

// Mark attributes the time since the previous mark (or Begin) to hop.
// Out-of-range hops and un-begun spans are ignored, so instrumentation
// can be sprinkled without nil-state checks at every site.
func (sp *Span) Mark(hop int) { sp.MarkAt(hop, time.Now()) }

// MarkAt is Mark with the hop closing at now — for an owner that already
// read the clock at that boundary (for its own latency observation, say)
// and should not pay for a second read.
func (sp *Span) MarkAt(hop int, now time.Time) {
	if hop < 0 || hop >= MaxHops || sp.start.IsZero() {
		return
	}
	sp.hops[hop] += now.Sub(sp.last).Nanoseconds()
	sp.last = now
}

// Active reports whether the span has been begun and not yet reset.
func (sp *Span) Active() bool { return !sp.start.IsZero() }

// Reset clears the span for reuse by the next request in the pool.
func (sp *Span) Reset() { *sp = Span{} }

// Tracer names a traced request path (serve, cluster, net), its hop
// stages, and its slow threshold. Create with Registry.Tracer; feed it
// spans embedded in the layer's pooled objects.
type Tracer struct {
	name string
	hops []string
	slow time.Duration
	ring *slowRing
}

// Tracer registers a named tracer with the given slow threshold (0 means
// DefaultSlowThreshold) and hop names (at most MaxHops; a span's Mark
// indices map onto this list positionally). Duplicate tracer names panic,
// like duplicate series.
func (r *Registry) Tracer(name string, slow time.Duration, hopNames []string, labels ...Label) *Tracer {
	if len(hopNames) > MaxHops {
		panic("telemetry: tracer " + name + " declares more than MaxHops hops")
	}
	if slow <= 0 {
		slow = DefaultSlowThreshold
	}
	ls := renderLabels(labels)
	if ls != "" {
		name = name + "{" + ls + "}"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register("tracer", "tracer:"+name, ls)
	t := &Tracer{name: name, hops: hopNames, slow: slow, ring: &r.ring}
	r.tracers = append(r.tracers, t)
	return t
}

// Finish completes a span: if its total latency meets the tracer's slow
// threshold, its hop breakdown is copied into the shared slow ring. The
// span stays usable (read or reset) by its owner afterwards. Inactive
// spans are ignored. Never allocates.
func (t *Tracer) Finish(sp *Span) { t.FinishAt(sp, time.Now()) }

// FinishAt is Finish with the span ending at now, the counterpart of
// Span.MarkAt: a span whose last hop was marked at the same now has no
// unattributed remainder.
func (t *Tracer) FinishAt(sp *Span, now time.Time) {
	if sp.start.IsZero() {
		return
	}
	total := now.Sub(sp.start)
	if total < t.slow {
		return
	}
	t.ring.insert(t, sp.start, total.Nanoseconds(), &sp.hops)
}

// slowEntry is one preallocated slot of the slow ring.
type slowEntry struct {
	tracer *Tracer
	start  time.Time
	total  int64
	hops   [MaxHops]int64
	seq    uint64
}

// slowRing is the registry-wide bounded ring of recent slow requests.
type slowRing struct {
	mu   sync.Mutex
	next int
	seq  uint64
	ents [slowRingLen]slowEntry
}

// insert copies one slow request into the next slot, evicting the oldest.
func (rg *slowRing) insert(t *Tracer, start time.Time, total int64, hops *[MaxHops]int64) {
	rg.mu.Lock()
	e := &rg.ents[rg.next]
	rg.next = (rg.next + 1) % slowRingLen
	rg.seq++
	e.tracer = t
	e.start = start
	e.total = total
	e.hops = *hops
	e.seq = rg.seq
	rg.mu.Unlock()
}

// SlowHop is one named stage of a slow request's latency breakdown.
type SlowHop struct {
	// Name is the hop's stage name; Nanos is time attributed to it.
	Name  string `json:"name"`
	Nanos int64  `json:"ns"`
}

// SlowRequest is one entry of the slow-request ring: which traced path it
// took, when it started, its total latency, and the per-hop breakdown.
// Hops the tracer declared but the request never marked report zero; time
// between the last mark and Finish appears in none of them (it is the
// remainder of Total).
type SlowRequest struct {
	// Tracer is the traced path's name (including instance labels).
	Tracer string `json:"tracer"`
	// StartUnixNano is when the request entered the traced path.
	StartUnixNano int64 `json:"start_unix_nano"`
	// TotalNanos is the request's total latency in nanoseconds.
	TotalNanos int64 `json:"total_ns"`
	// Hops is the per-stage breakdown, in the tracer's declared order.
	Hops []SlowHop `json:"hops"`
}

// SlowRequests returns the ring's current contents, newest first.
func (r *Registry) SlowRequests() []SlowRequest {
	rg := &r.ring
	rg.mu.Lock()
	defer rg.mu.Unlock()
	ents := make([]slowEntry, 0, slowRingLen)
	for i := range rg.ents {
		if rg.ents[i].tracer != nil {
			ents = append(ents, rg.ents[i])
		}
	}
	// Newest first: higher sequence numbers are more recent.
	for i, j := 0, len(ents)-1; i < j; i, j = i+1, j-1 {
		ents[i], ents[j] = ents[j], ents[i]
	}
	// The slots run in rotation, so after eviction wraps the array the
	// reversed slice may interleave; a small insertion sort by seq keeps
	// the contract exact without importing sort's comparator allocs.
	for i := 1; i < len(ents); i++ {
		for j := i; j > 0 && ents[j].seq > ents[j-1].seq; j-- {
			ents[j], ents[j-1] = ents[j-1], ents[j]
		}
	}
	out := make([]SlowRequest, 0, len(ents))
	for _, e := range ents {
		sr := SlowRequest{
			Tracer:        e.tracer.name,
			StartUnixNano: e.start.UnixNano(),
			TotalNanos:    e.total,
			Hops:          make([]SlowHop, len(e.tracer.hops)),
		}
		for h, name := range e.tracer.hops {
			sr.Hops[h] = SlowHop{Name: name, Nanos: e.hops[h]}
		}
		out = append(out, sr)
	}
	return out
}
