package cluster

// Router conformance: the same seeded traffic through the router core over
// an in-memory fake transport and over the real in-process transport must
// be bit-identical to embed.Layer.Forward, hand both transports the same
// per-shard deduplicated row lists, and split every update into the same
// per-shard (rows, grads) with duplicate rows kept in arrival order. No
// sockets, no nodes on the fake side — the suite runs in milliseconds.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/embed"
	"tensordimm/internal/isa"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
)

// fakeTransport serves shards from in-memory flat tables carved with the
// same buildShardModel the real shards use.
type fakeTransport struct {
	tables []*embed.Table // per shard; nil for an empty shard
	failOn int            // shard whose Wait fails, -1 for none
	// failUpdateOn is the shard whose Update fails without applying, -1
	// for none.
	failUpdateOn int
	// gate, when set, makes every Wait block until gateWant Starts were
	// observed across all calls — the in-flight width the router must reach
	// before any sub-request is allowed to finish.
	gate     chan struct{}
	gateWant int

	mu       sync.Mutex
	held     int // buffers handed out by Wait and not yet released
	starts   int
	waits    int
	releases int
	leaked   int // sub-requests started but never waited on by Release time
}

var (
	errFakeShard  = errors.New("fake: shard down")
	errFakeUpdate = errors.New("fake: shard refused the update")
)

type fakeCall struct {
	t       *fakeTransport
	rows    [][]int // per shard: the rows Start was handed
	out     [][]float32
	started []bool // Start seen, Wait not yet
	held    []bool // Wait handed a buffer out, Release not yet
}

func newFakeTransport(t *testing.T, m *recsys.Model, p *Placement) *fakeTransport {
	t.Helper()
	ft := &fakeTransport{tables: make([]*embed.Table, p.nodes), failOn: -1, failUpdateOn: -1}
	for s := range ft.tables {
		if p.localRows[s] == 0 {
			continue
		}
		sm, err := buildShardModel(m, p, s)
		if err != nil {
			t.Fatal(err)
		}
		ft.tables[s] = sm.Embedding.Tables[0]
	}
	return ft
}

func (ft *fakeTransport) NewCall() Call {
	n := len(ft.tables)
	return &fakeCall{t: ft, rows: make([][]int, n), out: make([][]float32, n),
		started: make([]bool, n), held: make([]bool, n)}
}

func (ft *fakeTransport) Update(s int, sub runtime.TableUpdate) error {
	if s == ft.failUpdateOn {
		return errFakeUpdate
	}
	runtime.AccumulateGolden(ft.tables[s], sub)
	return nil
}

func (fc *fakeCall) Start(s int, rows []int, _ time.Time) {
	ft := fc.t
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if fc.started[s] || fc.held[s] {
		panic("fake: Start on a shard whose previous sub-request was never waited on and released")
	}
	fc.rows[s], fc.started[s] = rows, true
	ft.starts++
	if ft.gate != nil && ft.starts == ft.gateWant {
		close(ft.gate)
	}
}

func (fc *fakeCall) Wait(s int) ([]float32, error) {
	ft := fc.t
	if ft.gate != nil {
		<-ft.gate
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if !fc.started[s] {
		panic("fake: Wait on a shard that was not started")
	}
	fc.started[s] = false
	ft.waits++
	if s == ft.failOn {
		return nil, errFakeShard
	}
	out := fc.out[s][:0]
	for _, r := range fc.rows[s] {
		out = append(out, ft.tables[s].Row(r)...)
	}
	fc.out[s] = out
	fc.held[s] = true
	ft.held++
	return out, nil
}

func (fc *fakeCall) Release() {
	ft := fc.t
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.releases++
	for s := range fc.held {
		if fc.started[s] {
			fc.started[s] = false
			ft.leaked++
		}
		if fc.held[s] {
			fc.held[s] = false
			ft.held--
		}
	}
}

// recorder wraps a Transport and logs what the router core hands it.
type recorder struct {
	inner   Transport
	mu      sync.Mutex
	gathers map[int][][]int // shard -> one deduplicated row list per Start
	updates map[int][]subUpdate
}

type subUpdate struct {
	rows  []int
	grads []float32
}

type recordedCall struct {
	rec   *recorder
	inner Call
}

func record(inner Transport) *recorder {
	return &recorder{inner: inner, gathers: map[int][][]int{}, updates: map[int][]subUpdate{}}
}

func (r *recorder) NewCall() Call { return &recordedCall{rec: r, inner: r.inner.NewCall()} }

func (r *recorder) Update(s int, sub runtime.TableUpdate) error {
	r.mu.Lock()
	r.updates[s] = append(r.updates[s], subUpdate{
		rows:  append([]int(nil), sub.Rows...),
		grads: append([]float32(nil), sub.Grads.Data()...),
	})
	r.mu.Unlock()
	return r.inner.Update(s, sub)
}

func (rc *recordedCall) Start(s int, rows []int, start time.Time) {
	rc.rec.mu.Lock()
	rc.rec.gathers[s] = append(rc.rec.gathers[s], append([]int(nil), rows...))
	rc.rec.mu.Unlock()
	rc.inner.Start(s, rows, start)
}

func (rc *recordedCall) Wait(s int) ([]float32, error) { return rc.inner.Wait(s) }

func (rc *recordedCall) Release() { rc.inner.Release() }

// conformanceRequests is the seeded request set: random rows over a small
// range (duplicates within a request), one row repeated everywhere, a
// maximal batch, and consecutive rows (which span every shard row-wise;
// table-wise every request already touches every table's shard).
func conformanceRequests(mc recsys.Config, maxBatch int) (reqs [][][]int, batches []int) {
	rng := rand.New(rand.NewSource(7))
	add := func(batch int, row func(t, i int) int) {
		rows := make([][]int, mc.Tables)
		for t := range rows {
			rows[t] = make([]int, batch*mc.Reduction)
			for i := range rows[t] {
				rows[t][i] = row(t, i)
			}
		}
		reqs, batches = append(reqs, rows), append(batches, batch)
	}
	add(3, func(t, i int) int { return rng.Intn(5) })
	add(2, func(t, i int) int { return 17 })
	add(maxBatch, func(t, i int) int { return rng.Intn(mc.TableRows) })
	add(4, func(t, i int) int { return (t + i) % mc.TableRows })
	add(1, func(t, i int) int { return mc.TableRows - 1 - i })
	return reqs, batches
}

// wantGathers is the reference dedup: first-occurrence order per shard,
// tables outer, lookups inner.
func wantGathers(p *Placement, rows [][]int) map[int][]int {
	seen := map[[2]int]bool{}
	out := map[int][]int{}
	for t, list := range rows {
		for _, r := range list {
			s, flat := p.Locate(t, r)
			if !seen[[2]int{s, flat}] {
				seen[[2]int{s, flat}] = true
				out[s] = append(out[s], flat)
			}
		}
	}
	return out
}

// wantSplit is the reference update split: arrival order per shard,
// duplicates kept.
func wantSplit(p *Placement, up runtime.TableUpdate) map[int]subUpdate {
	out := map[int]subUpdate{}
	for i, r := range up.Rows {
		s, flat := p.Locate(up.Table, r)
		su := out[s]
		su.rows = append(su.rows, flat)
		su.grads = append(su.grads, up.Grads.Row(i)...)
		out[s] = su
	}
	return out
}

func TestRouterConformance(t *testing.T) {
	const nodes, maxBatch = 3, 6
	for _, tc := range []struct {
		strat Strategy
		mean  bool
		op    isa.ReduceOp
	}{
		{TableWise, false, isa.RAdd},
		{RowWise, true, isa.RAdd},
		{RowWise, false, isa.RMax},
	} {
		t.Run(fmt.Sprintf("%v/mean=%v/%v", tc.strat, tc.mean, tc.op), func(t *testing.T) {
			mc := testConfig(4, 3, 64, tc.mean, tc.op)
			// Two identically seeded models: the cluster writes updates
			// through to its own, the fake's applied hook to the other.
			local, _ := buildCluster(t, mc, Config{Nodes: nodes, Strategy: tc.strat, MaxBatch: maxBatch})
			localRec := record(local.router.tr)
			local.router.tr = localRec // before the first request builds a scratch

			golden, err := recsys.Build(mc, 99)
			if err != nil {
				t.Fatal(err)
			}
			place := NewPlacement(tc.strat, nodes, mc.Tables, mc.TableRows)
			ft := newFakeTransport(t, golden, place)
			fakeRec := record(ft)
			fake := NewRouter("fake", mc, place, maxBatch, fakeRec, func(up runtime.TableUpdate) {
				runtime.AccumulateGolden(golden.Embedding.Tables[up.Table], up)
			})
			defer fake.Close(nil)

			reqs, batches := conformanceRequests(mc, maxBatch)
			read := func(phase string) {
				for q, rows := range reqs {
					want, err := golden.Embedding.Forward(rows, batches[q])
					if err != nil {
						t.Fatal(err)
					}
					gotFake, err := fake.EmbedInto(nil, rows, batches[q])
					if err != nil {
						t.Fatal(err)
					}
					gotLocal, err := local.EmbedInto(nil, rows, batches[q])
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(gotFake, want.Data()) {
						t.Fatalf("%s request %d: fake transport not bit-identical to Layer.Forward", phase, q)
					}
					if !slices.Equal(gotLocal, want.Data()) {
						t.Fatalf("%s request %d: local transport not bit-identical to Layer.Forward", phase, q)
					}
					for s, wantRows := range wantGathers(place, rows) {
						f, l := fakeRec.gathers[s], localRec.gathers[s]
						if len(f) == 0 || !reflect.DeepEqual(f[len(f)-1], wantRows) {
							t.Fatalf("%s request %d shard %d: fake gathered %v, want %v", phase, q, s, f, wantRows)
						}
						if len(l) == 0 || !reflect.DeepEqual(l[len(l)-1], wantRows) {
							t.Fatalf("%s request %d shard %d: local gathered %v, want %v", phase, q, s, l, wantRows)
						}
					}
				}
			}
			read("cold")
			if !reflect.DeepEqual(fakeRec.gathers, localRec.gathers) {
				t.Fatal("per-shard gather logs differ between the fake and the local transport")
			}

			// Writes: duplicate rows inside one entry, two entries on one
			// table, rows on every shard.
			rng := rand.New(rand.NewSource(11))
			grads := func(n int) *tensor.Tensor {
				g := tensor.New(n, mc.EmbDim)
				for i := range g.Data() {
					g.Data()[i] = rng.Float32() - 0.5
				}
				return g
			}
			ups := []runtime.TableUpdate{
				{Table: 1, Rows: []int{4, 0, 4, 1, 2, 4, 0}, Grads: grads(7)},
				{Table: 1, Rows: []int{2, 2}, Grads: grads(2)},
				{Table: 3, Rows: []int{17, 300, 17}, Grads: grads(3)},
			}
			// One call per table, then all three entries in one call: the
			// router applies entries in slice order, so each shard's
			// sub-update log has one deterministic order either way.
			want := map[int][]subUpdate{}
			for _, batch := range [][]runtime.TableUpdate{ups[:2], ups[2:], ups} {
				if err := fake.ApplyUpdates(batch); err != nil {
					t.Fatal(err)
				}
				if err := local.ApplyUpdates(batch); err != nil {
					t.Fatal(err)
				}
				for _, up := range batch {
					for s, su := range wantSplit(place, up) {
						want[s] = append(want[s], su)
					}
				}
			}
			for name, rec := range map[string]*recorder{"fake": fakeRec, "local": localRec} {
				if !reflect.DeepEqual(rec.updates, want) {
					t.Fatalf("%s transport: per-shard (rows, grads) splits\n got %v\nwant %v", name, rec.updates, want)
				}
			}
			read("after updates")

			if ft.held != 0 || ft.leaked != 0 || ft.waits != ft.starts {
				t.Fatalf("%d gather buffers never released, %d sub-requests never waited on (%d starts, %d waits)",
					ft.held, ft.leaked, ft.starts, ft.waits)
			}
			if want := int(fake.Requests.Load()); ft.releases != want {
				t.Fatalf("Release called %d times for %d requests", ft.releases, want)
			}
		})
	}
}

// TestRouterFailingShard: shard 0 errors -> the read fails with the
// transport's error (the lowest failing shard's), Failures increments, the
// sub-requests already started on shards 1 and 2 are still waited on, and
// every buffer a successful Wait handed out is released exactly once.
func TestRouterFailingShard(t *testing.T) {
	const nodes, maxBatch = 3, 4
	mc := testConfig(3, 2, 64, false, isa.RAdd)
	m, err := recsys.Build(mc, 99)
	if err != nil {
		t.Fatal(err)
	}
	place := NewPlacement(TableWise, nodes, mc.Tables, mc.TableRows)
	ft := newFakeTransport(t, m, place)
	r := NewRouter("fake", mc, place, maxBatch, ft, nil)
	defer r.Close(nil)
	reqs, batches := conformanceRequests(mc, maxBatch)

	ft.failOn = 0
	for q, rows := range reqs {
		if _, err := r.EmbedInto(nil, rows, batches[q]); !errors.Is(err, errFakeShard) {
			t.Fatalf("request %d: err = %v, want the failing shard's error", q, err)
		}
	}
	if got := r.Failures.Load(); got != uint64(len(reqs)) {
		t.Fatalf("Failures = %d, want %d", got, len(reqs))
	}
	if r.Requests.Load() != 0 {
		t.Fatalf("Requests = %d for all-failed traffic", r.Requests.Load())
	}
	// Table-wise over 3 tables, every request touches every shard: 3 starts,
	// all 3 waited although the first wait already failed.
	if want := nodes * len(reqs); ft.starts != want || ft.waits != want || ft.leaked != 0 {
		t.Fatalf("%d starts, %d waits, %d never waited on (want %d, %d, 0)", ft.starts, ft.waits, ft.leaked, want, want)
	}
	if ft.held != 0 || ft.releases != len(reqs) {
		t.Fatalf("held %d buffers after %d releases (want 0, %d)", ft.held, ft.releases, len(reqs))
	}

	// The shard recovers: the same scratches serve correct results again.
	ft.failOn = -1
	want, _ := m.Embedding.Forward(reqs[0], batches[0])
	got, err := r.EmbedInto(nil, reqs[0], batches[0])
	if err != nil || !slices.Equal(got, want.Data()) {
		t.Fatalf("after recovery: err=%v, bit-identical=%v", err, err == nil && slices.Equal(got, want.Data()))
	}
	if ft.held != 0 {
		t.Fatalf("%d buffers held after recovery", ft.held)
	}
}

// TestRouterUpdateStopsAtFailedEntry: the router applies a batch in slice
// order and a failed entry stops it. Of [ok entry, entry on the failing
// shard, entry on a third table] the first commits, the second returns the
// transport's error, and the third never reaches the transport; Failures
// counts the batch once and Updates not at all.
func TestRouterUpdateStopsAtFailedEntry(t *testing.T) {
	const nodes, maxBatch = 3, 4
	mc := testConfig(3, 2, 64, false, isa.RAdd)
	m, err := recsys.Build(mc, 99)
	if err != nil {
		t.Fatal(err)
	}
	place := NewPlacement(TableWise, nodes, mc.Tables, mc.TableRows) // table t on shard t
	ft := newFakeTransport(t, m, place)
	ft.failUpdateOn = 1
	rec := record(ft)
	var applied []runtime.TableUpdate
	r := NewRouter("fake", mc, place, maxBatch, rec, func(up runtime.TableUpdate) {
		applied = append(applied, up)
	})
	defer r.Close(nil)

	grads := tensor.New(2, mc.EmbDim)
	grads.Fill(0.25)
	ups := []runtime.TableUpdate{
		{Table: 0, Rows: []int{1, 2}, Grads: grads},
		{Table: 1, Rows: []int{3, 4}, Grads: grads},
		{Table: 2, Rows: []int{5, 6}, Grads: grads},
	}
	if err := r.ApplyUpdates(ups); !errors.Is(err, errFakeUpdate) {
		t.Fatalf("err = %v, want the transport's update error", err)
	}
	if f, u := r.Failures.Load(), r.Updates.Load(); f != 1 || u != 0 {
		t.Fatalf("Failures = %d, Updates = %d, want 1, 0", f, u)
	}
	if len(applied) != 1 || applied[0].Table != 0 {
		t.Fatalf("applied hook saw %d entries (%v), want only the first", len(applied), applied)
	}
	if n := len(rec.updates[2]); n != 0 {
		t.Fatalf("the entry after the failed one reached its shard %d times", n)
	}
}

// TestRouterInFlightWidth: the router itself bounds nothing. 32 concurrent
// reads over a transport whose Wait returns only once all 32 x shards
// sub-requests were started must complete — every read puts every shard's
// sub-request in flight before it waits for any, and no pool between the
// callers and the transport caps how many are outstanding.
func TestRouterInFlightWidth(t *testing.T) {
	const nodes, maxBatch, readers = 3, 4, 32
	mc := testConfig(3, 2, 64, false, isa.RAdd)
	m, err := recsys.Build(mc, 99)
	if err != nil {
		t.Fatal(err)
	}
	place := NewPlacement(TableWise, nodes, mc.Tables, mc.TableRows)
	ft := newFakeTransport(t, m, place)
	ft.gate, ft.gateWant = make(chan struct{}), readers*nodes
	r := NewRouter("fake", mc, place, maxBatch, ft, nil)
	defer r.Close(nil)
	reqs, batches := conformanceRequests(mc, maxBatch)
	want, err := m.Embedding.Forward(reqs[0], batches[0])
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			got, err := r.EmbedInto(nil, reqs[0], batches[0])
			if err == nil && !slices.Equal(got, want.Data()) {
				err = errors.New("not bit-identical to Layer.Forward")
			}
			done <- err
		}()
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < readers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			ft.mu.Lock()
			defer ft.mu.Unlock()
			t.Fatalf("only %d of %d sub-requests were ever in flight at once: reads are queued behind a bound inside the router",
				ft.starts, ft.gateWant)
		}
	}
	if ft.starts != readers*nodes || ft.waits != ft.starts || ft.held != 0 || ft.leaked != 0 {
		t.Fatalf("%d starts, %d waits, %d held, %d leaked", ft.starts, ft.waits, ft.held, ft.leaked)
	}
}

// refClock is the row-at-a-time cache discipline the batched route phase
// has to reproduce exactly: one probe per lookup in request order, then one
// insert per gathered row in sub-request order, each under CLOCK. Slots
// fill front to back, as rowCache's free stack hands them out.
type refClock struct {
	cap  int
	rows []int // slot -> row
	ref  []bool
	hand int
}

func (k *refClock) touch(row int) bool {
	i := slices.Index(k.rows, row)
	if i < 0 {
		return false
	}
	k.ref[i] = true
	return true
}

func (k *refClock) put(row int) {
	if k.touch(row) {
		return
	}
	if len(k.rows) < k.cap {
		k.rows, k.ref = append(k.rows, row), append(k.ref, false)
		return
	}
	for k.ref[k.hand] {
		k.ref[k.hand] = false
		k.hand = (k.hand + 1) % k.cap
	}
	k.rows[k.hand] = row
	k.hand = (k.hand + 1) % k.cap
}

// state returns the resident rows with their reference bits.
func (k *refClock) state() map[int]bool {
	m := map[int]bool{}
	for i, row := range k.rows {
		m[row] = k.ref[i]
	}
	return m
}

// TestRouterBatchedRoute drives the two-pass route phase over the fake
// transport with a hot-row cache on every shard: requests with duplicate
// rows inside one table and the same row numbers across tables, against a
// cold cache, a partly warm one, one smaller than a single request's
// distinct rows (so fill evicts rows it inserted a moment ago) and one that
// holds everything. The per-shard row lists handed to Start are pinned as
// literals — refClock gives the same ones as the LRU reference did, also
// for "evicting" — and every request is also checked against refClock:
// gathers, hit and miss counts, and the resident rows, their reference bits
// and the hand afterwards.
func TestRouterBatchedRoute(t *testing.T) {
	const nodes, maxBatch, batch = 2, 3, 2
	mc := testConfig(4, 2, 64, false, isa.RAdd)
	reqA := [][]int{{5, 5, 9, 2}, {5, 7, 7, 5}, {9, 5, 1, 9}, {2, 2, 2, 2}}
	reqB := [][]int{{5, 3, 3, 8}, {7, 6, 5, 6}, {1, 1, 4, 9}, {2, 0, 0, 2}}
	big := mc.Tables * mc.TableRows
	for _, tc := range []struct {
		name    string
		capRows int
		prior   [][][]int // requests served before the one under test
		req     [][]int
		gathers map[Strategy]map[int][]int // shard -> rows its Start must see
	}{
		{"cold", big, nil, reqA, map[Strategy]map[int][]int{
			TableWise: {0: {5, 9, 2, 310, 306, 302}, 1: {5, 7, 303}},
			RowWise:   {0: {1, 454}, 1: {2, 4, 152, 153, 304, 302, 300}},
		}},
		{"warm", big, [][][]int{reqA}, reqB, map[Strategy]map[int][]int{
			TableWise: {0: {3, 8, 305}, 1: {6, 301}},
			RowWise:   {0: {4, 154, 304, 453}, 1: {1}},
		}},
		{"evicting", 2, [][][]int{reqA}, reqB, map[Strategy]map[int][]int{
			TableWise: {0: {5, 3, 8, 305, 310}, 1: {6, 5, 301}},
			RowWise:   {0: {4, 154, 304, 453}, 1: {2, 1, 153, 152, 304}},
		}},
		{"all-hit", big, [][][]int{reqA}, reqA, map[Strategy]map[int][]int{
			TableWise: {}, RowWise: {},
		}},
	} {
		for _, strat := range []Strategy{TableWise, RowWise} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, strat), func(t *testing.T) {
				golden, err := recsys.Build(mc, 99)
				if err != nil {
					t.Fatal(err)
				}
				place := NewPlacement(strat, nodes, mc.Tables, mc.TableRows)
				rec := record(newFakeTransport(t, golden, place))
				r := NewRouter("fake", mc, place, maxBatch, rec, nil)
				defer r.Close(nil)
				ref := make([]refClock, nodes)
				for s := range r.caches {
					r.caches[s] = newRowCache(int64(tc.capRows*mc.EmbDim*4), mc.EmbDim, place.localRows[s])
					ref[s].cap = min(tc.capRows, place.localRows[s])
				}

				serve := func(req [][]int) map[int][]int {
					want := map[int][]int{}
					var wantHits, wantMisses [nodes]uint64
					for tab, rows := range req {
						for _, row := range rows {
							s, flat := place.Locate(tab, row)
							if ref[s].touch(flat) {
								wantHits[s]++
								continue
							}
							wantMisses[s]++
							if !slices.Contains(want[s], flat) {
								want[s] = append(want[s], flat)
							}
						}
					}
					for s := range ref {
						for _, flat := range want[s] {
							ref[s].put(flat)
						}
					}

					var hits0, misses0 [nodes]uint64
					for s, c := range r.caches {
						hits0[s], misses0[s] = c.hits.Load(), c.misses.Load()
					}
					rec.gathers = map[int][][]int{}
					got, err := r.EmbedInto(nil, req, batch)
					if err != nil {
						t.Fatal(err)
					}
					wantOut, err := golden.Embedding.Forward(req, batch)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, wantOut.Data()) {
						t.Fatal("not bit-identical to Layer.Forward")
					}
					gathers := map[int][]int{}
					for s, lists := range rec.gathers {
						if len(lists) != 1 {
							t.Fatalf("shard %d: %d Starts for one request", s, len(lists))
						}
						gathers[s] = lists[0]
					}
					if !reflect.DeepEqual(gathers, want) {
						t.Fatalf("Start saw %v, row-at-a-time reference gathers %v", gathers, want)
					}
					var probes uint64
					for s, c := range r.caches {
						h, m := c.hits.Load()-hits0[s], c.misses.Load()-misses0[s]
						if h != wantHits[s] || m != wantMisses[s] {
							t.Fatalf("shard %d: %d hits %d misses, want %d and %d", s, h, m, wantHits[s], wantMisses[s])
						}
						probes += h + m
						if got, want := clockState(t, c), ref[s].state(); !maps.Equal(got, want) || c.hand != ref[s].hand {
							t.Fatalf("shard %d holds %v with the hand at %d, want %v at %d", s, got, c.hand, want, ref[s].hand)
						}
					}
					if want := uint64(mc.Tables * batch * mc.Reduction); probes != want {
						t.Fatalf("%d probes for %d lookups: a duplicate lookup must probe again", probes, want)
					}
					return gathers
				}

				for _, req := range tc.prior {
					serve(req)
				}
				if got := serve(tc.req); !reflect.DeepEqual(got, tc.gathers[strat]) {
					t.Fatalf("Start saw %v, pinned %v", got, tc.gathers[strat])
				}
			})
		}
	}
}
