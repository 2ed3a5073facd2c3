package tensordimm_test

import (
	"slices"
	"testing"

	"tensordimm"
	"tensordimm/internal/tensor"
)

// TestPublicAPIEndToEnd exercises the whole public surface: build a node,
// deploy a model, run a near-memory inference, and verify it matches the
// pure-software model bit for bit.
func TestPublicAPIEndToEnd(t *testing.T) {
	nd, err := tensordimm.NewNode(8, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tensordimm.YouTube()
	cfg.TableRows = 300
	cfg.EmbDim = 128 // one stripe on 8 DIMMs
	cfg.Reduction = 5
	cfg.Hidden = []int{32, 16, 8, 4}

	model, err := tensordimm.BuildModel(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := tensordimm.Deploy(model, nd, 8)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := tensordimm.NewWorkload(cfg.TableRows, tensordimm.Zipfian, 7)
	if err != nil {
		t.Fatal(err)
	}
	batch := 4
	indices := gen.Batch(cfg.Tables, batch, cfg.Reduction)

	got, err := dep.Infer(indices, batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Infer(indices, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("near-memory inference differs from software model")
	}
}

func TestPublicBenchmarks(t *testing.T) {
	bs := tensordimm.Benchmarks()
	if len(bs) != 4 {
		t.Fatalf("Benchmarks() = %d entries", len(bs))
	}
	names := map[string]bool{}
	for _, b := range bs {
		names[b.Name] = true
	}
	for _, want := range []string{"NCF", "YouTube", "Fox", "Facebook"} {
		if !names[want] {
			t.Errorf("missing benchmark %s", want)
		}
	}
}

func TestPublicSimulation(t *testing.T) {
	p := tensordimm.DefaultPlatform()
	want := []tensordimm.DesignPoint{tensordimm.CPUOnly, tensordimm.CPUGPU, tensordimm.PMEM, tensordimm.TDIMM, tensordimm.GPUOnly}
	if !slices.Equal(tensordimm.DesignPoints(), want) {
		t.Fatalf("DesignPoints() = %v, want the five designs in the paper's order %v", tensordimm.DesignPoints(), want)
	}
	b := tensordimm.Simulate(tensordimm.TDIMM, tensordimm.YouTube(), 64, p)
	if b.TotalS() <= 0 {
		t.Fatal("non-positive latency")
	}
	if s := tensordimm.Speedup(tensordimm.TDIMM, tensordimm.CPUOnly, tensordimm.YouTube(), 64, p); s < 2 {
		t.Fatalf("TDIMM speedup over CPU-only = %.1f, implausible", s)
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := tensordimm.Experiments()
	if len(ids) != 14 {
		t.Fatalf("Experiments() = %d ids, want 12 paper artifacts + 2 extensions", len(ids))
	}
	r, err := tensordimm.RunExperiment("tab2", tensordimm.DefaultPlatform(), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "tab2" || len(r.Table.Rows) != 4 {
		t.Fatalf("tab2 result malformed: %+v", r)
	}
	if _, err := tensordimm.RunExperiment("bogus", tensordimm.DefaultPlatform(), false); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

// TestPublicClusterAPI exercises the sharded multi-node surface: shard a
// model row-wise across 3 nodes with hot-row caches, serve a skewed
// workload, and verify bit-identity with the single-model golden path.
func TestPublicClusterAPI(t *testing.T) {
	cfg := tensordimm.YouTube()
	cfg.TableRows = 301
	cfg.EmbDim = 128
	cfg.Reduction = 5
	cfg.Hidden = []int{32, 16, 8, 4}
	model, err := tensordimm.BuildModel(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := tensordimm.NewCluster(model, tensordimm.ClusterConfig{
		Nodes:      3,
		Strategy:   tensordimm.RowWise,
		CacheBytes: 64 << 10,
		MaxBatch:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg := tensordimm.NewTelemetry()
	cl.Instrument(reg)
	gen, err := tensordimm.NewZipfWorkload(cfg.TableRows, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	emb := tensordimm.NewTensor(4, cfg.Tables*cfg.EmbDim)
	for i := 0; i < 4; i++ {
		indices := gen.Batch(cfg.Tables, 4, cfg.Reduction)
		if _, err := cl.EmbedInto(emb.Data(), indices, 4); err != nil {
			t.Fatal(err)
		}
		got, err := model.InferFromEmbeddings(emb)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Infer(indices, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("iter %d: cluster inference differs from software model", i)
		}
	}
	// 4 reads of 4 samples, each pooling Reduction rows per table.
	lookups := uint64(4 * 4 * cfg.Tables * cfg.Reduction)
	reqs := counterSum(t, reg, "tensordimm_cluster_requests_total")
	hits, misses := counterSum(t, reg, "tensordimm_cluster_cache_hits_total"), counterSum(t, reg, "tensordimm_cluster_cache_misses_total")
	if n := counterSum(t, reg, "tensordimm_cluster_lookups_total"); reqs != 4 || n != lookups || hits+misses != lookups {
		t.Fatalf("cluster metrics malformed: %d requests, %d lookups (%d hits + %d misses), want 4, %d", reqs, n, hits, misses, lookups)
	}
}

// counterSum sums one counter over every label set it carries (one per
// shard for a cluster's cache series) in a snapshot of reg; a missing
// series fails the test.
func counterSum(t *testing.T, reg *tensordimm.TelemetryRegistry, name string) uint64 {
	t.Helper()
	var n uint64
	found := false
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			n += c.Value
			found = true
		}
	}
	if !found {
		t.Fatalf("no series %s", name)
	}
	return n
}

// TestPublicOnlineUpdateAPI exercises the online-update surface end to
// end: TableUpdate / NewTensor through Cluster.ApplyUpdates and
// Server.Update, with reads staying bit-identical to the golden model.
func TestPublicOnlineUpdateAPI(t *testing.T) {
	cfg := tensordimm.YouTube()
	cfg.TableRows = 301
	cfg.EmbDim = 128
	cfg.Reduction = 5
	cfg.Hidden = []int{32, 16, 8, 4}
	model, err := tensordimm.BuildModel(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := tensordimm.NewCluster(model, tensordimm.ClusterConfig{
		Nodes:      2,
		Strategy:   tensordimm.TableWise,
		CacheBytes: 64 << 10,
		MaxBatch:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg := tensordimm.NewTelemetry()
	cl.Instrument(reg)

	grads := tensordimm.NewTensor(3, cfg.EmbDim)
	for i := range grads.Data() {
		grads.Data()[i] = 0.25
	}
	up := tensordimm.TableUpdate{Table: 1, Rows: []int{5, 5, 17}, Grads: grads}
	if err := cl.ApplyUpdates([]tensordimm.TableUpdate{up}); err != nil {
		t.Fatal(err)
	}
	// The test's own golden: the cluster keeps no copy of model's tables.
	golden, err := tensordimm.BuildModel(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	tensordimm.AccumulateGolden(golden.Embedding.Tables[up.Table], up)
	gen, err := tensordimm.NewZipfWorkload(cfg.TableRows, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	indices := gen.Batch(cfg.Tables, 4, cfg.Reduction)
	indices[1][0], indices[1][1] = 5, 17 // touch the updated rows
	got := tensordimm.NewTensor(4, cfg.Tables*cfg.EmbDim)
	if _, err := cl.EmbedInto(got.Data(), indices, 4); err != nil {
		t.Fatal(err)
	}
	want, err := golden.Embedding.Forward(indices, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("post-update cluster embed differs from golden")
	}
	if u, r := counterSum(t, reg, "tensordimm_cluster_updates_total"), counterSum(t, reg, "tensordimm_cluster_update_rows_total"); u != 1 || r != 3 {
		t.Fatalf("update metrics malformed: %d updates, %d rows", u, r)
	}

	// Single-node server path: model is still the pristine seed-42 build,
	// so after the same one update the server matches the same golden.
	nd, err := tensordimm.NewNode(8, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := tensordimm.DeployConcurrent(model, nd, 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tensordimm.NewServer(tensordimm.ServeConfig{}, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srvReg := tensordimm.NewTelemetry()
	srv.Instrument(srvReg)
	if err := srv.Update([]tensordimm.TableUpdate{up}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.EmbedInto(got.Data(), indices, 4); err != nil {
		t.Fatal(err)
	}
	want, err = golden.Embedding.Forward(indices, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("post-update server embed differs from golden")
	}
	if u, r := counterSum(t, srvReg, "tensordimm_serve_updates_total"), counterSum(t, srvReg, "tensordimm_serve_update_rows_total"); u != 1 || r != 3 {
		t.Fatalf("server update metrics malformed: %d updates, %d rows", u, r)
	}
}
