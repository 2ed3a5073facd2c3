package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanHops checks the wall-clock path: Mark and Finish name their
// hops, a span over the tracer's threshold lands in the slow ring, and its
// total covers its hops. The span is backdated past the threshold instead
// of slept through; TestSpanMarkAtFinishAt pins the exact hop arithmetic.
func TestSpanHops(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Tracer("serve", time.Microsecond, []string{"queue", "exec"})
	var sp Span
	sp.BeginAt(time.Now().Add(-2 * time.Millisecond))
	sp.Mark(0)
	sp.Mark(1)
	tr.Finish(&sp)

	slow := reg.SlowRequests()
	if len(slow) != 1 {
		t.Fatalf("slow ring has %d entries, want 1", len(slow))
	}
	sr := slow[0]
	if sr.Tracer != "serve" {
		t.Fatalf("tracer name %q", sr.Tracer)
	}
	if len(sr.Hops) != 2 || sr.Hops[0].Name != "queue" || sr.Hops[1].Name != "exec" {
		t.Fatalf("hops = %+v", sr.Hops)
	}
	if sr.Hops[0].Nanos < int64(2*time.Millisecond) || sr.Hops[1].Nanos < 0 {
		t.Fatalf("hops %+v, want the backdated 2ms in queue and exec >= 0", sr.Hops)
	}
	if sum := sr.Hops[0].Nanos + sr.Hops[1].Nanos; sr.TotalNanos < sum {
		t.Fatalf("total %d < sum of hops %d", sr.TotalNanos, sum)
	}

	// A fast request must not enter the ring.
	fast := reg.Tracer("fast", time.Hour, []string{"a"})
	var sp2 Span
	sp2.Begin()
	sp2.Mark(0)
	fast.Finish(&sp2)
	if got := len(reg.SlowRequests()); got != 1 {
		t.Fatalf("fast request entered the ring: %d entries", got)
	}
}

// TestSpanMarkAtFinishAt checks the caller-supplied-clock variants with
// exact stamps: hops are the differences between them, one stamp shared by
// the last MarkAt and FinishAt leaves no unattributed remainder, and the
// threshold and the inactive-span rule apply as for Mark/Finish.
func TestSpanMarkAtFinishAt(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Tracer("at", time.Millisecond, []string{"queue", "exec"})
	t0 := time.Now()
	var sp Span
	sp.MarkAt(0, t0)     // ignored: not begun
	tr.FinishAt(&sp, t0) // ignored: not begun
	sp.BeginAt(t0)
	sp.MarkAt(0, t0.Add(300*time.Microsecond))
	end := t0.Add(900 * time.Microsecond)
	sp.MarkAt(1, end)
	tr.FinishAt(&sp, end)
	if got := len(reg.SlowRequests()); got != 0 {
		t.Fatalf("a 900us span entered a 1ms ring: %d entries", got)
	}
	end = t0.Add(2 * time.Millisecond)
	sp.MarkAt(1, end)
	sp.MarkAt(MaxHops, end.Add(time.Hour)) // ignored: out of range
	tr.FinishAt(&sp, end)
	slow := reg.SlowRequests()
	if len(slow) != 1 {
		t.Fatalf("slow ring has %d entries, want 1", len(slow))
	}
	sr := slow[0]
	if sr.Hops[0].Nanos != 300_000 || sr.Hops[1].Nanos != 1_700_000 || sr.TotalNanos != 2_000_000 {
		t.Fatalf("hops %+v total %d, want 300us + 1.7ms = 2ms exactly", sr.Hops, sr.TotalNanos)
	}
}

// TestSpanStateDiscipline checks the pooled-object contract: inactive
// spans ignore Mark/Finish, Reset clears, out-of-range hops are dropped.
func TestSpanStateDiscipline(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Tracer("d", time.Nanosecond, []string{"a"})
	var sp Span
	if sp.Active() {
		t.Fatal("zero span should be inactive")
	}
	sp.Mark(0)     // ignored: not begun
	tr.Finish(&sp) // ignored: not begun
	if len(reg.SlowRequests()) != 0 {
		t.Fatal("un-begun span reached the ring")
	}
	sp.Begin()
	if !sp.Active() {
		t.Fatal("begun span should be active")
	}
	sp.Mark(-1)      // ignored
	sp.Mark(MaxHops) // ignored
	sp.Reset()
	if sp.Active() {
		t.Fatal("reset span should be inactive")
	}

	// BeginAt backdates the span start.
	sp.BeginAt(time.Now().Add(-10 * time.Millisecond))
	sp.Mark(0)
	tr.Finish(&sp)
	slow := reg.SlowRequests()
	if len(slow) != 1 || slow[0].TotalNanos < int64(10*time.Millisecond) {
		t.Fatalf("backdated span: %+v", slow)
	}
}

// TestSlowRingEviction overfills the ring and checks the newest-first,
// bounded contract.
func TestSlowRingEviction(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Tracer("e", time.Nanosecond, []string{"a"})
	for i := 0; i < slowRingLen+17; i++ {
		var sp Span
		sp.BeginAt(time.Now().Add(-time.Duration(i+1) * time.Millisecond))
		sp.Mark(0)
		tr.Finish(&sp)
	}
	slow := reg.SlowRequests()
	if len(slow) != slowRingLen {
		t.Fatalf("ring holds %d, want %d", len(slow), slowRingLen)
	}
	// Later inserts were backdated further, so their totals are larger;
	// newest-first therefore means strictly decreasing totals, and the
	// survivors are the last slowRingLen inserts.
	for i := 1; i < len(slow); i++ {
		if slow[i-1].TotalNanos <= slow[i].TotalNanos {
			t.Fatalf("ring not newest-first at %d: %d then %d", i, slow[i-1].TotalNanos, slow[i].TotalNanos)
		}
	}
}

// TestTracerConcurrentFinish hammers the ring from many goroutines; run
// under -race this checks the ring lock discipline.
func TestTracerConcurrentFinish(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Tracer("c", time.Nanosecond, []string{"a", "b"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var sp Span
				sp.Begin()
				sp.Mark(0)
				sp.Mark(1)
				tr.Finish(&sp)
				if i%50 == 0 {
					reg.SlowRequests()
				}
			}
		}()
	}
	wg.Wait()
	if got := len(reg.SlowRequests()); got != slowRingLen {
		t.Fatalf("ring holds %d, want full %d", got, slowRingLen)
	}
}

// TestTracerValidation covers the registration guards.
func TestTracerValidation(t *testing.T) {
	reg := NewRegistry()
	reg.Tracer("v", 0, []string{"a"})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate tracer name should panic")
			}
		}()
		reg.Tracer("v", 0, []string{"a"})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("too many hops should panic")
			}
		}()
		reg.Tracer("wide", 0, make([]string, MaxHops+1))
	}()
	// Labeled tracers are distinct instances of one path.
	t0 := reg.Tracer("sh", 0, []string{"a"}, L("shard", "0"))
	reg.Tracer("sh", 0, []string{"a"}, L("shard", "1"))
	var sp Span
	sp.BeginAt(time.Now().Add(-time.Second))
	sp.Mark(0)
	t0.Finish(&sp)
	slow := reg.SlowRequests()
	if len(slow) != 1 || !strings.Contains(slow[0].Tracer, `shard="0"`) {
		t.Fatalf("labeled tracer name: %+v", slow)
	}
}

// TestRegisterGoRuntime checks the runtime collector registers its series
// and that snapshots read sane values.
func TestRegisterGoRuntime(t *testing.T) {
	reg := NewRegistry()
	RegisterGoRuntime(reg)
	s := reg.Snapshot()
	if v, ok := s.Gauge("go_goroutines"); !ok || v < 1 {
		t.Fatalf("go_goroutines = %v %v", v, ok)
	}
	if v, ok := s.Gauge("go_heap_alloc_bytes"); !ok || v <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %v %v", v, ok)
	}
	if _, ok := s.Counter("go_gc_cycles_total"); !ok {
		t.Fatal("go_gc_cycles_total missing")
	}
	if _, ok := s.Histogram("go_gc_pause_seconds"); !ok {
		t.Fatal("go_gc_pause_seconds missing")
	}
	// A second snapshot must not double-feed pauses beyond GC reality.
	s2 := reg.Snapshot()
	h1, _ := s.Histogram("go_gc_pause_seconds")
	h2, _ := s2.Histogram("go_gc_pause_seconds")
	if h2.Count < h1.Count {
		t.Fatalf("pause count went backwards: %d then %d", h1.Count, h2.Count)
	}
}
