package cluster

import (
	"math/rand"
	"sync"
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
)

// reference is a sequential single-node golden model: an independent build
// of the same config and seed as the cluster's model, mutated only by the
// test itself, so no cluster-side bug can leak into the expectation.
type reference struct {
	m *recsys.Model
}

func newReference(t *testing.T, mc recsys.Config) *reference {
	t.Helper()
	m, err := recsys.Build(mc, 99) // buildCluster seeds with 99 too
	if err != nil {
		t.Fatal(err)
	}
	return &reference{m: m}
}

// apply accumulates the updates into the reference tables in slice order.
func (ref *reference) apply(ups []runtime.TableUpdate) {
	for _, up := range ups {
		tb := ref.m.Embedding.Tables[up.Table]
		for i, r := range up.Rows {
			dst := tb.Row(r)
			src := up.Grads.Row(i)
			for k := range dst {
				dst[k] += src[k]
			}
		}
	}
}

// embed computes the sequential golden embedding.
func (ref *reference) embed(rows [][]int, batch int) (*tensor.Tensor, error) {
	return ref.m.Embedding.Forward(rows, batch)
}

// randUpdate draws one random update batch: 1-2 tables, dup-heavy rows.
func randUpdate(rng *rand.Rand, mc recsys.Config, maxRows int) []runtime.TableUpdate {
	n := 1 + rng.Intn(2)
	ups := make([]runtime.TableUpdate, 0, n)
	for i := 0; i < n; i++ {
		rows := make([]int, 1+rng.Intn(maxRows))
		for j := range rows {
			if j > 0 && rng.Intn(3) == 0 {
				rows[j] = rows[j-1] // duplicate: must accumulate in order
			} else {
				rows[j] = rng.Intn(mc.TableRows)
			}
		}
		g := tensor.New(len(rows), mc.EmbDim)
		for k := range g.Data() {
			g.Data()[k] = rng.Float32() - 0.5
		}
		ups = append(ups, runtime.TableUpdate{Table: rng.Intn(mc.Tables), Rows: rows, Grads: g})
	}
	return ups
}

// TestGoldenRandomInterleavings is the property-style online-update test:
// for seeds x strategies x update fractions, a random interleaving of
// Embed and ApplyUpdates must stay bit-identical to the sequential
// single-node reference at every step. CI runs it under -race (the cluster
// is internally concurrent even under sequential submission).
func TestGoldenRandomInterleavings(t *testing.T) {
	mc := testConfig(3, 2, 64, false, isa.RAdd)
	seeds := []int64{1, 2}
	steps := 30
	if testing.Short() {
		seeds = seeds[:1]
		steps = 12
	}
	for _, strategy := range []Strategy{TableWise, RowWise} {
		for _, frac := range []float64{0, 0.1, 0.5} {
			for _, seed := range seeds {
				t.Run(strategy.String()+"/"+string('0'+byte(int(frac*10)))+"/seed", func(t *testing.T) {
					c, _ := buildCluster(t, mc, Config{
						Nodes: 3, Strategy: strategy, CacheBytes: 16 << 10,
					})
					reg := instrument(c)
					ref := newReference(t, mc)
					rng := rand.New(rand.NewSource(seed))
					for step := 0; step < steps; step++ {
						if rng.Float64() < frac {
							ups := randUpdate(rng, mc, c.cfg.MaxBatch*mc.Reduction)
							if err := c.ApplyUpdates(ups); err != nil {
								t.Fatal(err)
							}
							ref.apply(ups)
							continue
						}
						batch := 1 + rng.Intn(c.cfg.MaxBatch)
						rows := make([][]int, mc.Tables)
						for tb := range rows {
							rows[tb] = make([]int, batch*mc.Reduction)
							for j := range rows[tb] {
								// Zipf-ish skew so cache hits occur and the
								// coherence path is actually exercised.
								if rng.Intn(2) == 0 {
									rows[tb][j] = rng.Intn(8)
								} else {
									rows[tb][j] = rng.Intn(mc.TableRows)
								}
							}
						}
						got, err := embedTensor(c, rows, batch)
						if err != nil {
							t.Fatal(err)
						}
						want, err := ref.embed(rows, batch)
						if err != nil {
							t.Fatal(err)
						}
						if !tensor.Equal(got, want) {
							t.Fatalf("step %d (frac %.1f): cluster embed differs from sequential reference",
								step, frac)
						}
					}
					if frac > 0 {
						u, r := counter(t, reg, "tensordimm_cluster_updates_total"), counter(t, reg, "tensordimm_cluster_update_rows_total")
						if u == 0 || r == 0 {
							t.Fatalf("update metrics empty: %d updates, %d rows", u, r)
						}
					}
				})
			}
		}
	}
}

// TestGoldenConcurrentMixedTraffic hammers one cluster with concurrent
// readers and one updater goroutine per table (per-table order stays
// deterministic), then checks the quiesced state bit-for-bit against the
// sequential reference. Run under -race this also exercises the cache
// version handshake: a stale put surviving an invalidation would make the
// final Embed diverge.
func TestGoldenConcurrentMixedTraffic(t *testing.T) {
	mc := testConfig(2, 2, 64, false, isa.RAdd)
	for _, strategy := range []Strategy{TableWise, RowWise} {
		t.Run(strategy.String(), func(t *testing.T) {
			c, _ := buildCluster(t, mc, Config{
				Nodes: 2, Strategy: strategy, CacheBytes: 16 << 10,
			})
			ref := newReference(t, mc)

			steps := 10
			if testing.Short() {
				steps = 4
			}
			perTable := make([][][]runtime.TableUpdate, mc.Tables)
			for tb := 0; tb < mc.Tables; tb++ {
				rng := rand.New(rand.NewSource(int64(40 + tb)))
				for s := 0; s < steps; s++ {
					rows := []int{rng.Intn(mc.TableRows), rng.Intn(8), rng.Intn(8)}
					g := tensor.New(len(rows), mc.EmbDim)
					for k := range g.Data() {
						g.Data()[k] = rng.Float32() - 0.5
					}
					perTable[tb] = append(perTable[tb],
						[]runtime.TableUpdate{{Table: tb, Rows: rows, Grads: g}})
				}
			}

			var wg sync.WaitGroup
			errs := make([]error, mc.Tables+2)
			for tb := 0; tb < mc.Tables; tb++ {
				wg.Add(1)
				go func(tb int) {
					defer wg.Done()
					for _, ups := range perTable[tb] {
						if err := c.ApplyUpdates(ups); err != nil {
							errs[tb] = err
							return
						}
					}
				}(tb)
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(70 + r)))
					for s := 0; s < steps; s++ {
						rows := make([][]int, mc.Tables)
						for tb := range rows {
							rows[tb] = make([]int, 2*mc.Reduction)
							for j := range rows[tb] {
								rows[tb][j] = rng.Intn(8) // hot rows: contend with updates
							}
						}
						if _, err := c.EmbedInto(nil, rows, 2); err != nil {
							errs[mc.Tables+r] = err
							return
						}
					}
				}(r)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for tb := 0; tb < mc.Tables; tb++ {
				for _, ups := range perTable[tb] {
					ref.apply(ups)
				}
			}

			// Quiesced: sweep every row of every table through Embed and
			// compare with the reference (catches both stale node tables and
			// stale cache entries).
			for base := 0; base < mc.TableRows; base += c.cfg.MaxBatch * mc.Reduction {
				n := c.cfg.MaxBatch * mc.Reduction
				if base+n > mc.TableRows {
					n = mc.TableRows - base
				}
				batch := n / mc.Reduction
				if batch == 0 {
					continue
				}
				rows := make([][]int, mc.Tables)
				for tb := range rows {
					rows[tb] = make([]int, batch*mc.Reduction)
					for j := range rows[tb] {
						rows[tb][j] = base + j
					}
				}
				got, err := embedTensor(c, rows, batch)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.embed(rows, batch)
				if err != nil {
					t.Fatal(err)
				}
				if !tensor.Equal(got, want) {
					t.Fatalf("rows [%d, %d): quiesced cluster differs from reference", base, base+n)
				}
			}
		})
	}
}

// TestApplyUpdatesValidation pins the error paths of the cluster write
// path: closed cluster, empty batch, bad table, bad rows, bad shape, zero
// rows, cap.
func TestApplyUpdatesValidation(t *testing.T) {
	mc := testConfig(2, 2, 64, false, isa.RAdd)
	c, _ := buildCluster(t, mc, Config{Nodes: 2})
	g := tensor.New(1, mc.EmbDim)
	if err := c.ApplyUpdates(nil); err == nil {
		t.Fatal("want empty-batch error")
	}
	if err := c.ApplyUpdates([]runtime.TableUpdate{{Table: 5, Rows: []int{0}, Grads: g}}); err == nil {
		t.Fatal("want table-range error")
	}
	if err := c.ApplyUpdates([]runtime.TableUpdate{{Table: 0, Rows: []int{mc.TableRows}, Grads: g}}); err == nil {
		t.Fatal("want row-range error")
	}
	if err := c.ApplyUpdates([]runtime.TableUpdate{{Table: 0, Rows: []int{0, 1}, Grads: g}}); err == nil {
		t.Fatal("want shape error")
	}
	if err := c.ApplyUpdates([]runtime.TableUpdate{{Table: 0, Rows: []int{}, Grads: tensor.New(0, mc.EmbDim)}}); err == nil {
		t.Fatal("want zero-row error, as remote and wire.DecodeUpdate reject it")
	}
	big := make([]int, c.cfg.MaxBatch*mc.Reduction+1)
	bigG := tensor.New(len(big), mc.EmbDim)
	if err := c.ApplyUpdates([]runtime.TableUpdate{{Table: 0, Rows: big, Grads: bigG}}); err == nil {
		t.Fatal("want cap error")
	}
	c.Close()
	if err := c.ApplyUpdates([]runtime.TableUpdate{{Table: 0, Rows: []int{0}, Grads: g}}); err == nil {
		t.Fatal("want closed error")
	}
}

// TestUpdateMetricsAndInvalidation checks the per-shard accounting the
// acceptance criteria name: updates routed, rows updated, cache entries
// invalidated, update bytes charged to the fabric.
func TestUpdateMetricsAndInvalidation(t *testing.T) {
	mc := testConfig(2, 1, 64, false, isa.RAdd)
	c, _ := buildCluster(t, mc, Config{Nodes: 2, CacheBytes: 32 << 10})
	reg := instrument(c)
	ref := newReference(t, mc)

	// Warm the cache with rows 0..3 of both tables.
	rows := [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}}
	if _, err := c.EmbedInto(nil, rows, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EmbedInto(nil, rows, 4); err != nil { // second pass: hits
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.CacheHits == 0 {
		t.Fatalf("no cache hits after warm pass: %+v", m)
	}

	// Update rows 1 and 2 of table 0: both are resident, so the owning
	// shard must report exactly two invalidations.
	g := tensor.New(2, mc.EmbDim)
	g.Fill(1)
	ups := []runtime.TableUpdate{{Table: 0, Rows: []int{1, 2}, Grads: g}}
	if err := c.ApplyUpdates(ups); err != nil {
		t.Fatal(err)
	}
	ref.apply(ups)
	m = c.Metrics()
	if u, r := counter(t, reg, "tensordimm_cluster_updates_total"), counter(t, reg, "tensordimm_cluster_update_rows_total"); u != 1 || r != 2 {
		t.Fatalf("cluster update counters: %d updates, %d rows", u, r)
	}
	if m.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", m.Invalidations)
	}
	subUpdates := shardSum(t, reg, "tensordimm_cluster_sub_updates_total")
	updateBytes := shardSum(t, reg, "tensordimm_cluster_update_bytes_total")
	wantBytes := uint64(2*4) + uint64(2*mc.EmbBytes())
	if subUpdates == 0 || updateBytes != wantBytes {
		t.Fatalf("shard update accounting: %d sub-updates, %d bytes (want %d)",
			subUpdates, updateBytes, wantBytes)
	}
	if h, _ := reg.Snapshot().Histogram("tensordimm_cluster_update_fabric_seconds"); h.Count == 0 {
		t.Fatalf("update transfer not observed: %+v", h)
	}
	// The updated rows must re-gather fresh: an Embed now matches golden.
	got, err := embedTensor(c, rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.embed(rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("post-update embed differs from golden (stale cache?)")
	}
}
