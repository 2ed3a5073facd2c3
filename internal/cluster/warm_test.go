package cluster

import (
	"slices"
	"testing"
	"time"

	"tensordimm/internal/isa"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
)

// TestUnlocateRoundTrip pins Locate as a bijection onto the shards' flat
// local tables: every (table, row) coordinate lands on a distinct in-range
// flat slot, and every slot is hit, for both sharding strategies and a node
// count that does not divide the table height.
func TestUnlocateRoundTrip(t *testing.T) {
	const nodes, tables, rows = 3, 4, 301
	for _, strat := range []Strategy{TableWise, RowWise} {
		p := NewPlacement(strat, nodes, tables, rows)
		seen := make(map[[2]int]bool)
		for tab := 0; tab < tables; tab++ {
			for r := 0; r < rows; r++ {
				s, flat := p.Locate(tab, r)
				if s < 0 || s >= nodes || flat < 0 || flat >= p.LocalRows(s) {
					t.Fatalf("%v: locate(%d, %d) = (%d, %d) out of range", strat, tab, r, s, flat)
				}
				if seen[[2]int{s, flat}] {
					t.Fatalf("%v: locate(%d, %d) = (%d, %d) is already taken", strat, tab, r, s, flat)
				}
				seen[[2]int{s, flat}] = true
			}
		}
		slots := 0
		for s := 0; s < nodes; s++ {
			slots += p.LocalRows(s)
		}
		if slots != len(seen) {
			t.Fatalf("%v: %d coordinates fill %d of %d flat slots", strat, tables*rows, len(seen), slots)
		}
	}
}

// TestHotRowsRanking pins the HotRows contract: resident rows only, those
// hit since the sweep last passed them first, and k truncates.
func TestHotRowsRanking(t *testing.T) {
	const dim = 16
	c := newRowCache(5*dim*4, dim, 64)
	for _, r := range []int{3, 7, 2, 40, 9} {
		c.put(r, vec(dim, float32(r)))
	}
	buf := make([]float32, dim)
	for _, r := range []int{40, 7, 7, 50} { // 50 misses and is never resident
		c.getInto(r, buf)
	}
	c.invalidate([]int{9})
	if got, want := c.hotRows(10), []int{7, 40, 3, 2}; !slices.Equal(got, want) {
		t.Fatalf("hotRows(10) = %v, want %v", got, want)
	}
	if got, want := c.hotRows(3), []int{7, 40, 3}; !slices.Equal(got, want) {
		t.Fatalf("hotRows(3) = %v, want %v", got, want)
	}
	if got, want := c.hotRows(1), []int{7}; !slices.Equal(got, want) {
		t.Fatalf("hotRows(1) = %v, want %v", got, want)
	}
	if got := newRowCache(1024, dim, 8).hotRows(4); len(got) != 0 {
		t.Fatalf("cold cache hotRows = %v, want empty", got)
	}
}

// TestWarmCacheHitsFirstRequest drives skewed traffic through one cluster,
// harvests its hot-row list, warms a second identical cluster with it, and
// asserts the warmed cluster serves the same head rows from cache on the
// very first request — the warm-restart contract.
func TestWarmCacheHitsFirstRequest(t *testing.T) {
	mc := testConfig(2, 2, 64, false, isa.RAdd)
	cfg := Config{Nodes: 2, CacheBytes: 64 * 1024}
	c1, m := buildCluster(t, mc, cfg)

	// Skewed read traffic: a handful of rows dominate.
	hot := [][]int{{1, 1, 5, 5}, {9, 9, 3, 3}}
	for i := 0; i < 20; i++ {
		if _, err := c1.EmbedInto(nil, hot, 2); err != nil {
			t.Fatal(err)
		}
	}
	var lists [][]int
	for s := 0; s < cfg.Nodes; s++ {
		rows := c1.HotRows(s, 16)
		if len(rows) == 0 {
			t.Fatalf("shard %d: no hot rows after skewed traffic", s)
		}
		lists = append(lists, rows)
	}
	if c1.HotRows(-1, 4) != nil || c1.HotRows(99, 4) != nil || c1.HotRows(0, 0) != nil {
		t.Fatal("out-of-range HotRows must return nil")
	}

	c2, err := New(m, c1.Config())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	for s, rows := range lists {
		// A stale out-of-range entry must be skipped, not fatal.
		n, err := c2.WarmCache(s, append([]int{1 << 20}, rows...))
		if err != nil {
			t.Fatalf("shard %d warm: %v", s, err)
		}
		if n != len(rows) {
			t.Fatalf("shard %d warmed %d rows, want %d", s, n, len(rows))
		}
	}
	if _, err := c2.WarmCache(99, []int{0}); err == nil {
		t.Fatal("want error for out-of-range shard")
	}
	if n, err := c2.WarmCache(0, nil); n != 0 || err != nil {
		t.Fatalf("empty warm = (%d, %v), want (0, nil)", n, err)
	}

	before := c2.Metrics().CacheHits
	got, err := embedTensor(c2, hot, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Embedding.Forward(hot, 2)
	if err != nil {
		t.Fatal(err)
	}
	gd, wd := got.Data(), want.Data()
	for i := range gd {
		if gd[i] != wd[i] {
			t.Fatalf("warmed embedding differs from golden at %d", i)
		}
	}
	if hits := c2.Metrics().CacheHits - before; hits == 0 {
		t.Fatal("first post-warm request took zero cache hits")
	}
}

// hookTransport runs onStart(n) inside the n-th Call.Start (counting from
// 1), on the router's goroutine, before the sub-request is submitted.
type hookTransport struct {
	Transport
	starts  int
	onStart func(n int)
}

type hookCall struct {
	Call
	t *hookTransport
}

func (h *hookTransport) NewCall() Call { return &hookCall{h.Transport.NewCall(), h} }

func (hc *hookCall) Start(s int, rows []int, start time.Time) {
	hc.t.starts++
	hc.t.onStart(hc.t.starts)
	hc.Call.Start(s, rows, start)
}

// TestWarmCacheCountsOnlyCachedRows lands an update between two chunks of
// one warm: the chunk whose gather it raced is dropped by the version
// handshake, the chunks before and after it are cached, and the count
// warmCache returns is the number of rows the cache actually took — not
// the number it was handed.
func TestWarmCacheCountsOnlyCachedRows(t *testing.T) {
	const maxBatch, chunks = 2, 3
	mc := testConfig(2, 2, 64, false, isa.RAdd)
	golden, err := recsys.Build(mc, 99)
	if err != nil {
		t.Fatal(err)
	}
	place := NewPlacement(TableWise, 1, mc.Tables, mc.TableRows)
	maxSub := place.MaxSub(0, maxBatch, mc.Reduction)
	hook := &hookTransport{Transport: newFakeTransport(t, golden, place)}
	r := NewRouter("fake", mc, place, maxBatch, hook, func(up runtime.TableUpdate) {
		runtime.AccumulateGolden(golden.Embedding.Tables[up.Table], up)
	})
	defer r.Close(nil)
	cache := newRowCache(1<<20, mc.EmbDim, place.localRows[0])
	r.caches[0] = cache

	// The update hits a row outside the warm set, in the middle of the
	// second chunk's gather: after that chunk's version was read, before its
	// rows are offered to the cache.
	g := tensor.New(1, mc.EmbDim)
	g.Fill(0.25)
	hook.onStart = func(n int) {
		if n == 2 {
			if err := r.ApplyUpdates([]runtime.TableUpdate{{Table: 1, Rows: []int{300}, Grads: g}}); err != nil {
				t.Error(err)
			}
		}
	}
	rows := make([]int, chunks*maxSub)
	for i := range rows {
		rows[i] = i
	}
	warmed, err := r.warmCache(0, rows)
	if err != nil {
		t.Fatal(err)
	}
	if hook.starts != chunks {
		t.Fatalf("%d rows warmed in %d gathers, want %d chunks of %d", len(rows), hook.starts, chunks, maxSub)
	}
	if warmed != cache.len() || warmed != (chunks-1)*maxSub {
		t.Fatalf("warmCache reports %d rows cached, the cache holds %d, want both %d", warmed, cache.len(), (chunks-1)*maxSub)
	}
	for _, row := range rows[maxSub : 2*maxSub] {
		if _, ok := cache.get(row); ok {
			t.Fatalf("row %d was gathered while the update landed and must not be cached", row)
		}
	}

	// The next read misses the dropped chunk and the updated row, and the
	// cache serves the rest: bit-identical to the golden model either way.
	req := [][]int{{0, maxSub, 2 * maxSub, 1}, {300, 300, 5, 5}}
	got, err := r.EmbedInto(nil, req, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := golden.Embedding.Forward(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want.Data()) {
		t.Fatal("post-warm read differs from golden")
	}
}
