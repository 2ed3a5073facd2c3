package cluster

import (
	"maps"
	"sync"
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
)

func vec(dim int, v float32) []float32 {
	out := make([]float32, dim)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestRowCacheDisabledWhenTooSmall(t *testing.T) {
	if c := newRowCache(0, 16, 1024); c != nil {
		t.Fatal("zero capacity must disable the cache")
	}
	if c := newRowCache(63, 16, 1024); c != nil {
		t.Fatal("capacity below one row must disable the cache")
	}
	if c := newRowCache(64, 16, 1024); c == nil {
		t.Fatal("one-row capacity must enable the cache")
	}
}

// TestRowCacheSecondChanceEviction pins CLOCK: a hit sets the row's
// reference bit, and the eviction sweep clears a set bit and passes the row
// over once, evicting the first row under the hand whose bit was already
// clear.
func TestRowCacheSecondChanceEviction(t *testing.T) {
	const dim = 16 // 64 B per row
	c := newRowCache(3*64, dim, 1024)
	for r := 0; r < 3; r++ {
		c.put(r, vec(dim, float32(r)))
	}
	buf := make([]float32, dim)
	for _, r := range []int{0, 1, 1} { // a hit on a referenced row changes nothing
		if !c.getInto(r, buf) {
			t.Fatalf("row %d should be resident", r)
		}
	}
	if got, want := clockState(t, c), map[int]bool{0: true, 1: true, 2: false}; !maps.Equal(got, want) {
		t.Fatalf("after hits on 0 and 1: %v, want %v", got, want)
	}
	// The hand starts at row 0: rows 0 and 1 get their second chance, row 2
	// (the newest, but never hit) goes.
	c.put(3, vec(dim, 3))
	if got, want := clockState(t, c), map[int]bool{0: false, 1: false, 3: false}; !maps.Equal(got, want) {
		t.Fatalf("after inserting row 3: %v, want %v", got, want)
	}
	// The hand wrapped to row 0, whose chance is spent.
	c.put(4, vec(dim, 4))
	if got, want := clockState(t, c), map[int]bool{1: false, 3: false, 4: false}; !maps.Equal(got, want) {
		t.Fatalf("after inserting row 4: %v, want %v", got, want)
	}
	for _, r := range []int{1, 3, 4} {
		got, ok := c.get(r)
		if !ok {
			t.Fatalf("row %d should be resident", r)
		}
		if got[0] != float32(r) {
			t.Fatalf("row %d holds %v", r, got[0])
		}
	}
	if c.len() != 3 {
		t.Fatalf("resident rows = %d, want 3", c.len())
	}
}

func TestRowCachePutCopies(t *testing.T) {
	const dim = 16
	c := newRowCache(1024, dim, 1024)
	src := vec(dim, 1)
	c.put(7, src)
	src[0] = 99 // caller mutates its slice after insert
	got, ok := c.get(7)
	if !ok || got[0] != 1 {
		t.Fatalf("cache shares caller storage: got %v", got[0])
	}
	// Re-inserting a resident row only references it: usage does not grow.
	c.put(7, vec(dim, 2))
	if c.len() != 1 {
		t.Fatalf("re-insert grew the cache to %d rows", c.len())
	}
}

// TestRowCacheExactBudgetFill pins the eviction boundary arithmetic: a
// budget of exactly k rows holds k rows with zero evictions, the (k+1)th
// insert evicts exactly one, and a budget that is not a whole multiple of
// the row size only holds the whole rows that fit.
func TestRowCacheExactBudgetFill(t *testing.T) {
	const dim = 16 // 64 B per row
	c := newRowCache(4*64, dim, 1024)
	for r := 0; r < 4; r++ {
		c.put(r, vec(dim, float32(r)))
	}
	if c.len() != 4 || len(c.rowOf) != 4 {
		t.Fatalf("exact fill: %d rows in %d slots, want 4 in 4", c.len(), len(c.rowOf))
	}
	for r := 0; r < 4; r++ { // nothing was evicted at exactly-full
		if _, ok := c.get(r); !ok {
			t.Fatalf("row %d evicted at exact budget", r)
		}
	}
	c.put(4, vec(dim, 4))
	if c.len() != 4 {
		t.Fatalf("overflow by one: %d rows, want 4", c.len())
	}
	if _, ok := c.get(0); ok {
		t.Fatal("row 0, under the hand once every bit was cleared, should have been the single eviction")
	}

	// A fractional budget (3.5 rows) holds only 3 whole rows.
	c = newRowCache(3*64+32, dim, 1024)
	for r := 0; r < 4; r++ {
		c.put(r, vec(dim, float32(r)))
	}
	if c.len() != 3 || len(c.rowOf) != 3 {
		t.Fatalf("fractional budget: %d rows in %d slots, want 3 in 3", c.len(), len(c.rowOf))
	}
}

// TestRowCacheZeroBudget covers the disabled-cache contract end to end: a
// zero (or sub-row) budget yields a nil cache, and the cluster treats a
// nil cache as "no caching" on both the read and the write path.
func TestRowCacheZeroBudget(t *testing.T) {
	if c := newRowCache(0, 16, 1024); c != nil {
		t.Fatal("zero budget must disable the cache")
	}
	// A cacheless cluster still serves updates and reads correctly.
	mc := testConfig(2, 1, 64, false, isa.RAdd)
	c, _ := buildCluster(t, mc, Config{Nodes: 2}) // CacheBytes 0
	ref := newReference(t, mc)
	rows := [][]int{{0, 1}, {2, 3}}
	if _, err := c.EmbedInto(nil, rows, 2); err != nil {
		t.Fatal(err)
	}
	g := tensor.New(1, mc.EmbDim)
	g.Fill(0.5)
	ups := []runtime.TableUpdate{{Table: 0, Rows: []int{1}, Grads: g}}
	if err := c.ApplyUpdates(ups); err != nil {
		t.Fatal(err)
	}
	ref.apply(ups)
	m := c.Metrics()
	if m.CacheHits != 0 || m.CacheMisses != 0 || m.Invalidations != 0 {
		t.Fatalf("cacheless cluster recorded cache traffic: %+v", m)
	}
	got, err := embedTensor(c, rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.embed(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("cacheless post-update embed differs from golden")
	}
}

// TestRowCacheInvalidateMidClock removes a row from a slot the hand has
// not reached yet and checks residency, the row count, the invalidation
// counter, that the freed slot is refilled without an eviction or a move
// of the hand, and that the refilled slot then takes its turn in the sweep.
func TestRowCacheInvalidateMidClock(t *testing.T) {
	const dim = 16
	c := newRowCache(3*64, dim, 1024)
	for r := 0; r < 3; r++ {
		c.put(r, vec(dim, float32(r)))
	}
	// Slots 0, 1, 2 hold rows 0, 1, 2, the hand is at slot 0. Invalidate
	// the middle row plus a non-resident one; only the resident one counts.
	if n := c.invalidate([]int{1, 77}); n != 1 {
		t.Fatalf("invalidate removed %d rows, want 1", n)
	}
	if c.invalidations.Load() != 1 {
		t.Fatalf("invalidations counter = %d, want 1", c.invalidations.Load())
	}
	if c.len() != 2 {
		t.Fatalf("after invalidate: %d rows, want 2", c.len())
	}
	if _, ok := c.get(1); ok {
		t.Fatal("invalidated row still resident")
	}
	// The freed budget admits a new row without evicting anything.
	c.put(3, vec(dim, 3))
	if got, want := clockState(t, c), map[int]bool{0: false, 2: false, 3: false}; !maps.Equal(got, want) {
		t.Fatalf("after refill: %v, want %v", got, want)
	}
	if c.hand != 0 || c.rowOf[1] != 3 {
		t.Fatalf("refill put row 3 in slot %d and moved the hand to %d, want slot 1 and hand 0", c.slotOf[3], c.hand)
	}
	// Row 0 is referenced, so the sweep passes it over and evicts row 3 in
	// the refilled slot.
	if !c.getInto(0, make([]float32, dim)) {
		t.Fatal("row 0 should be resident")
	}
	c.put(4, vec(dim, 4))
	if got, want := clockState(t, c), map[int]bool{0: false, 2: false, 4: false}; !maps.Equal(got, want) {
		t.Fatalf("after overflow: %v, want %v", got, want)
	}
}

// TestRowCacheVersionHandshake pins the coherence mechanism: a putAt with
// a snapshot taken before an invalidation must be dropped, one taken after
// must land.
func TestRowCacheVersionHandshake(t *testing.T) {
	const dim = 16
	c := newRowCache(1024, dim, 1024)
	ver := c.snapshot()
	c.invalidate([]int{5}) // nothing resident: still bumps the version
	c.putAt(5, vec(dim, 1), ver)
	if _, ok := c.get(5); ok {
		t.Fatal("stale putAt landed after invalidation")
	}
	ver = c.snapshot()
	c.putAt(5, vec(dim, 2), ver)
	got, ok := c.get(5)
	if !ok || got[0] != 2 {
		t.Fatal("fresh putAt should land")
	}
}

func TestRowCacheAccountingUnderConcurrency(t *testing.T) {
	const dim = 16
	c := newRowCache(8*64, dim, 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				row := (g + i) % 16
				if _, ok := c.get(row); !ok {
					c.put(row, vec(dim, float32(row)))
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.hits.Load() + c.misses.Load(); got != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", got, 8*200)
	}
	if c.len() > 8 {
		t.Fatalf("%d resident rows exceed the 8-row budget", c.len())
	}
}
