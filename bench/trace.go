package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"tensordimm/internal/netserve"
	"tensordimm/internal/runtime"
)

// spanKind names a layer boundary the harness can observe from outside:
// the caller's side of a request, and the netserve.Backend seam under each
// network server.
type spanKind int

const (
	spanClientEmbed spanKind = iota
	spanClientUpdate
	spanClusterEmbed
	spanClusterUpdate
	spanRemoteEmbed
	spanRemoteUpdate
	spanReplicaEmbed
	spanReplicaUpdate
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.embed", "client.update",
	"cluster.embed", "cluster.apply_updates",
	"remote.embed", "remote.apply_updates",
	"replica.embed", "replica.apply_updates",
}

// span is one timed call. Times are nanoseconds since the pass started.
// With one request in flight (the serial pass) spans nest by time, so the
// parent of a seam span is exact even though the wire carries no trace id.
type span struct {
	Trace   uint64 `json:"trace"`
	Span    uint64 `json:"span"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	kind    spanKind
}

// kindAgg aggregates one span kind under load: durations only.
type kindAgg struct {
	sumNs   atomic.Int64
	n       atomic.Int64
	samples []uint32
}

const (
	aggSamples = 1 << 21 // durations kept per kind in a loaded pass
	spanBuffer = 1 << 16 // spans kept in a serial pass
)

// tracer is the traced run's recorder. Everything it writes to is
// allocated up front; recording a span is two clock reads, an atomic
// increment and a store.
type tracer struct {
	aggOn   atomic.Bool // loaded pass: aggregate durations per kind
	spansOn atomic.Bool // serial pass: keep whole spans
	base    time.Time
	spans   []span
	nspans  atomic.Int64
	kinds   [numSpanKinds]kindAgg
}

func newTracer() *tracer {
	t := &tracer{spans: make([]span, spanBuffer)}
	for k := range t.kinds {
		t.kinds[k].samples = make([]uint32, aggSamples)
	}
	return t
}

// reset clears what the previous pass recorded and restarts the clock.
func (t *tracer) reset() {
	t.base = time.Now()
	t.nspans.Store(0)
	for k := range t.kinds {
		t.kinds[k].sumNs.Store(0)
		t.kinds[k].n.Store(0)
	}
}

func (t *tracer) record(k spanKind, start, end time.Time) {
	if t.aggOn.Load() {
		a := &t.kinds[k]
		d := end.Sub(start)
		a.sumNs.Add(int64(d))
		if i := a.n.Add(1) - 1; i < int64(len(a.samples)) {
			a.samples[i] = uint32(min(d, time.Duration(^uint32(0))))
		}
	}
	if t.spansOn.Load() {
		if i := t.nspans.Add(1) - 1; i < int64(len(t.spans)) {
			t.spans[i] = span{kind: k, StartNs: int64(start.Sub(t.base)), EndNs: int64(end.Sub(t.base))}
		}
	}
}

// sortedSamples returns the durations a loaded pass kept for kind k.
func (t *tracer) sortedSamples(k spanKind) []uint32 {
	a := &t.kinds[k]
	n := min(a.n.Load(), int64(len(a.samples)))
	s := slices.Clone(a.samples[:n])
	slices.Sort(s)
	return s
}

// seam wraps a netserve.Backend so the calls a network server makes into
// its backend are timed from the benchmark's own files.
type seam struct {
	netserve.Backend
	t             *tracer
	embed, update spanKind
}

func (s *seam) EmbedInto(dst []float32, rows [][]int, batch int) ([]float32, error) {
	if !s.t.aggOn.Load() && !s.t.spansOn.Load() {
		return s.Backend.EmbedInto(dst, rows, batch)
	}
	start := time.Now()
	out, err := s.Backend.EmbedInto(dst, rows, batch)
	s.t.record(s.embed, start, time.Now())
	return out, err
}

func (s *seam) ApplyUpdates(ups []runtime.TableUpdate) error {
	if !s.t.aggOn.Load() && !s.t.spansOn.Load() {
		return s.Backend.ApplyUpdates(ups)
	}
	start := time.Now()
	err := s.Backend.ApplyUpdates(ups)
	s.t.record(s.update, start, time.Now())
	return err
}

// restoreSeam is a seam over a replica's backend, which must stay a
// netserve.RestoreBackend or the router could not reseat it.
type restoreSeam struct{ seam }

func (s *restoreSeam) Restore(table int, rows []int, vals []float32) error {
	rb, ok := s.Backend.(netserve.RestoreBackend)
	if !ok {
		return errors.New("bench: replica backend cannot restore")
	}
	return rb.Restore(table, rows, vals)
}

// wrap installs a seam under a front server. A nil tracer (the untraced
// run) installs nothing.
func (t *tracer) wrap(b netserve.Backend, embed, update spanKind) netserve.Backend {
	if t == nil {
		return b
	}
	return &seam{Backend: b, t: t, embed: embed, update: update}
}

// wrapReplica installs a seam under a replica's server.
func (t *tracer) wrapReplica(b netserve.Backend) netserve.Backend {
	if t == nil {
		return b
	}
	return &restoreSeam{seam{Backend: b, t: t, embed: spanReplicaEmbed, update: spanReplicaUpdate}}
}

// depth orders the observable boundaries from the caller inwards: a span
// can only be the child of a span nearer the caller. Without it one shard
// sub-request that happens to finish inside its parallel sibling would be
// taken for the sibling's child.
func (k spanKind) depth() int {
	switch k {
	case spanClientEmbed, spanClientUpdate:
		return 0
	case spanReplicaEmbed, spanReplicaUpdate:
		return 2
	}
	return 1
}

// linkSpans gives the spans of a serial pass their identities: spans are
// numbered in start order, a span's parent is the innermost span nearer
// the caller that encloses it in time, and a trace is a root span with its
// descendants. It returns the spans in start order.
func linkSpans(spans []span) []span {
	slices.SortFunc(spans, func(a, b span) int {
		if c := cmp.Compare(a.StartNs, b.StartNs); c != 0 {
			return c
		}
		return cmp.Compare(a.kind.depth(), b.kind.depth())
	})
	var open []int // indices of spans enclosing the current position
	trace := uint64(0)
	for i := range spans {
		s := &spans[i]
		s.Span, s.Name = uint64(i+1), spanNames[s.kind]
		for len(open) > 0 {
			if top := &spans[open[len(open)-1]]; top.EndNs >= s.EndNs && top.kind.depth() < s.kind.depth() {
				break
			}
			open = open[:len(open)-1]
		}
		if len(open) == 0 {
			trace++
			s.Trace, s.Parent = trace, 0
		} else {
			p := &spans[open[len(open)-1]]
			s.Trace, s.Parent = p.Trace, p.Span
		}
		open = append(open, i)
	}
	return spans
}

// selfTimes returns, for every span id, the span's duration minus the part
// of it covered by its direct children (children may overlap each other:
// two shard sub-requests run in parallel).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.Span]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.StartNs, b.StartNs) })
		covered, at := int64(0), s.StartNs
		for _, k := range kids {
			from, to := max(k.StartNs, at), min(k.EndNs, s.EndNs)
			if to > from {
				covered += to - from
				at = to
			}
		}
		self[s.Span] = s.EndNs - s.StartNs - covered
	}
	return self
}

// traceFile is what a serial pass leaves on disk.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, tf.Workload+".trace.json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
