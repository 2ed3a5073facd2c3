package serve

import (
	"slices"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/isa"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
)

// testConfig returns a test-sized model: mean pooling (YouTube-class), dim
// 128 = one stripe on an 8-DIMM node.
func testConfig(tables, reduction, dim int, mean bool, op isa.ReduceOp) recsys.Config {
	return recsys.Config{
		Name: "serve-test", Tables: tables, Reduction: reduction, FCLayers: 2,
		EmbDim: dim, TableRows: 300, Hidden: []int{16, 8},
		Op: op, Mean: mean,
	}
}

func newDeployment(t *testing.T, cfg recsys.Config, maxBatch, slots, lanes int) *runtime.Deployment {
	t.Helper()
	m, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{DIMMs: 8, PerDIMMBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	d, err := runtime.DeployConcurrent(m, nd, maxBatch, slots, lanes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for zero deployments")
	}
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	d := newDeployment(t, cfg, 8, 1, 1)
	if _, err := New(Config{MaxBatch: 16}, d); err == nil {
		t.Fatal("want error for MaxBatch beyond deployment capacity")
	}
	other := testConfig(3, 5, 128, true, isa.RAdd) // different table count
	d2 := newDeployment(t, other, 8, 1, 1)
	if _, err := New(Config{}, d, d2); err == nil {
		t.Fatal("want error for mismatched deployment geometries")
	}
	s, err := New(Config{}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.MaxBatch != 8 || s.cfg.Workers != 1 {
		t.Fatalf("defaults: %+v", s.cfg)
	}
}

func TestSubmitValidation(t *testing.T) {
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	s, err := New(Config{}, newDeployment(t, cfg, 8, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 1)
	good := gen.Batch(cfg.Tables, 1, cfg.Reduction)
	if _, err := s.Infer(good, 0); err == nil {
		t.Fatal("want batch range error")
	}
	if _, err := s.Infer(good, 9); err == nil {
		t.Fatal("want batch > MaxBatch error")
	}
	if _, err := s.Infer(good[:1], 1); err == nil {
		t.Fatal("want table count error")
	}
	if _, err := s.Infer([][]int{{1}, {2}}, 1); err == nil {
		t.Fatal("want row count error")
	}
	bad := gen.Batch(cfg.Tables, 1, cfg.Reduction)
	bad[1][0] = cfg.TableRows // out of range
	if _, err := s.Infer(bad, 1); err == nil {
		t.Fatal("want row range error")
	}
	// A valid request still succeeds after the rejected ones.
	if _, err := s.Infer(good, 1); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClientsMatchGolden is the core serving guarantee: many
// concurrent clients, merged arbitrarily by the batcher, each get results
// bitwise-identical to the golden (unbatched, pure-software) model. Run
// with -race.
func TestConcurrentClientsMatchGolden(t *testing.T) {
	cfg := testConfig(3, 4, 128, true, isa.RAdd)
	dep := newDeployment(t, cfg, 16, 2, 2*cfg.Tables)
	s, err := New(Config{MaxBatch: 16, MaxDelay: 2 * time.Millisecond}, dep)
	if err != nil {
		t.Fatal(err)
	}
	const clients, iters = 8, 6
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen, _ := workload.NewGenerator(cfg.TableRows, workload.Zipfian, int64(c)*13+1)
			for i := 0; i < iters; i++ {
				batch := 1 + (c+i)%3
				rows := gen.Batch(cfg.Tables, batch, cfg.Reduction)
				got, err := s.Embed(rows, batch)
				if err != nil {
					errs[c] = err
					return
				}
				want, err := dep.GoldenEmbedding(rows, batch)
				if err != nil {
					errs[c] = err
					return
				}
				if !tensor.Equal(got, want) {
					errs[c] = errMismatch(c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Requests != clients*iters {
		t.Fatalf("completed %d requests, want %d", m.Requests, clients*iters)
	}
	if m.TotalLatency.Count != clients*iters || m.TotalLatency.P99 <= 0 {
		t.Fatalf("latency accounting: %+v", m.TotalLatency)
	}
}

type errMismatch2 struct{ c, i int }

func (e errMismatch2) Error() string {
	return "client result differs from golden model"
}

func errMismatch(c, i int) error { return errMismatch2{c, i} }

// TestInferMatchesUnbatchedModel checks the full pipeline (embedding + DNN)
// against the pure-software model under concurrency.
func TestInferMatchesUnbatchedModel(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RMul) // NCF-class pairwise path
	dep := newDeployment(t, cfg, 8, 2, 4)
	s, err := New(Config{MaxDelay: time.Millisecond}, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const clients = 8
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, int64(c)+7)
			for i := 0; i < 4; i++ {
				rows := gen.Batch(cfg.Tables, 2, cfg.Reduction)
				got, err := s.Infer(rows, 2)
				if err != nil {
					errs[c] = err
					return
				}
				want, err := dep.Model.Infer(rows, 2)
				if err != nil {
					errs[c] = err
					return
				}
				if !tensor.Equal(got, want) {
					errs[c] = errMismatch(c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchingCoalesces floods a single-worker server and verifies the
// batcher actually merges: far fewer executions than requests.
func TestBatchingCoalesces(t *testing.T) {
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	dep := newDeployment(t, cfg, 32, 1, cfg.Tables)
	s, err := New(Config{MaxBatch: 32, MaxDelay: 20 * time.Millisecond, Workers: 1}, dep)
	if err != nil {
		t.Fatal(err)
	}
	const requests = 64
	var wg sync.WaitGroup
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 3)
	rowSets := make([][][]int, requests)
	for i := range rowSets {
		rowSets[i] = gen.Batch(cfg.Tables, 1, cfg.Reduction)
	}
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Infer(rowSets[i], 1)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Requests != requests || m.Samples != requests {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Batches >= requests/2 {
		t.Fatalf("micro-batching did not coalesce: %d executions for %d requests", m.Batches, requests)
	}
	if m.MeanBatch <= 1.5 {
		t.Fatalf("mean batch %.2f, want > 1.5", m.MeanBatch)
	}
}

// TestMultipleDeployments serves from two replicas and checks both get
// traffic and results stay golden.
func TestMultipleDeployments(t *testing.T) {
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	d1 := newDeployment(t, cfg, 8, 1, cfg.Tables)
	d2 := newDeployment(t, cfg, 8, 1, cfg.Tables)
	s, err := New(Config{MaxDelay: time.Millisecond}, d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 9)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows := gen2(gen, cfg)
			got, err := s.Embed(rows, 1)
			if err != nil {
				errs[i] = err
				return
			}
			want, _ := d1.GoldenEmbedding(rows, 1)
			if !tensor.Equal(got, want) {
				errs[i] = errMismatch(i, 0)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// gen2 draws one single-sample request under the generator's mutex-free
// sequential API (the generator itself is not safe for concurrent use, so
// tests draw up front or serialize).
var genMu sync.Mutex

func gen2(g *workload.Generator, cfg recsys.Config) [][]int {
	genMu.Lock()
	defer genMu.Unlock()
	return g.Batch(cfg.Tables, 1, cfg.Reduction)
}

func TestCloseSemantics(t *testing.T) {
	cfg := testConfig(1, 1, 128, false, isa.RAdd)
	dep := newDeployment(t, cfg, 4, 1, 1)
	s, err := New(Config{}, dep)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 2)
	rows := gen.Batch(cfg.Tables, 1, cfg.Reduction)
	if _, err := s.Infer(rows, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := s.Infer(rows, 1); err == nil {
		t.Fatal("want error after close")
	}
	// Close released the deployment's pool memory.
	if dep.Node.AllocCount() != 0 {
		t.Fatalf("%d live allocations after close", dep.Node.AllocCount())
	}
}

func TestNewRejectsNegativeConfig(t *testing.T) {
	cfg := testConfig(1, 1, 128, false, isa.RAdd)
	d := newDeployment(t, cfg, 4, 1, 1)
	for _, bad := range []Config{
		{Workers: -1},
		{QueueDepth: -1},
		{MaxDelay: -time.Millisecond},
		{MaxBatch: -1},
	} {
		if _, err := New(bad, d); err == nil {
			t.Fatalf("config %+v: want error, got server", bad)
		}
	}
	// The documented zero-value behavior: MaxDelay 0 selects the 200us
	// default rather than an always-expired batching timer.
	s, err := New(Config{}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.MaxDelay != 200*time.Microsecond {
		t.Fatalf("zero MaxDelay defaulted to %v, want 200us", s.cfg.MaxDelay)
	}
}

// TestCloseDeliversStartedNotWaited: a read that was submitted with
// StartEmbedInto and not yet awaited is an accepted request like any other
// — Close drains it, and the Wait that follows (after Close has returned
// and released the deployment) still delivers the bit-exact result. A
// StartEmbedInto after Close fails fast without handing out a Pending.
func TestCloseDeliversStartedNotWaited(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	dep := newDeployment(t, cfg, 8, 1, 2)
	// A long batching deadline: only Close's drain can dispatch the batch
	// before the test gives up.
	s, err := New(Config{MaxDelay: time.Minute}, dep)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 3)
	var pending [3]Pending
	var want [3][]float32
	for i := range pending {
		rows := gen.Batch(cfg.Tables, 2, cfg.Reduction)
		golden, err := dep.GoldenEmbedding(rows, 2)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = golden.Data()
		if pending[i], err = s.StartEmbedInto(nil, rows, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pending {
		got, err := p.Wait()
		if err != nil {
			t.Fatalf("read %d started before Close: %v", i, err)
		}
		if !slices.Equal(got, want[i]) {
			t.Fatalf("read %d not bit-identical to the golden embedding", i)
		}
	}
	if _, err := s.StartEmbedInto(nil, gen.Batch(cfg.Tables, 1, cfg.Reduction), 1); err == nil {
		t.Fatal("want error from StartEmbedInto after Close")
	}
	if m := s.Metrics(); m.Requests != 3 || m.Failures != 0 {
		t.Fatalf("requests %d, failures %d after the drain, want 3, 0", m.Requests, m.Failures)
	}
}
