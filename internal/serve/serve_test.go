package serve

import (
	"math"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/isa"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
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

// goldenModel builds the model newDeployment deploys, as the test's own
// oracle: the deployment keeps no host-side copy of its tables.
func goldenModel(t *testing.T, cfg recsys.Config) *recsys.Model {
	t.Helper()
	m, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// instrument puts s's series on a fresh registry, the read surface the
// counter assertions use. Call it before the traffic it should count.
func instrument(s *Server) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	return reg
}

// counter reads s's tensordimm_serve_<name>_total series from reg; a
// missing series fails the test.
func counter(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	v, ok := reg.Snapshot().Counter("tensordimm_serve_" + name + "_total")
	if !ok {
		t.Fatalf("no series tensordimm_serve_%s_total", name)
	}
	return v
}

// embedTensor reads through EmbedInto into a fresh [batch, tables*dim]
// tensor, the shape the golden Model.Embedding.Forward returns.
func embedTensor(s *Server, rows [][]int, batch int) (*tensor.Tensor, error) {
	x := tensor.New(batch, s.geom.Width())
	_, err := s.EmbedInto(x.Data(), rows, batch)
	return x, err
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	d := newDeployment(t, cfg, 8, 1, 1)
	if _, err := New(Config{MaxBatch: 16}, d); err == nil {
		t.Fatal("want error for MaxBatch beyond deployment capacity")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("want error for a nil deployment")
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

// TestDeploy builds a multi-table stack with Deploy: every execution slot
// and lane fits the node it sized, reads are bit-identical to the golden
// model at the full batch cap, and Close leaves the node empty.
func TestDeploy(t *testing.T) {
	cfg := testConfig(3, 5, 128, true, isa.RAdd)
	m, err := recsys.Build(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(m, 8, Config{MaxBatch: 8}); err == nil {
		t.Fatal("want error for zero Workers")
	}
	s, err := Deploy(m, 8, Config{MaxBatch: 8, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.dep.Lanes(); got != 3*cfg.Tables {
		t.Fatalf("%d lanes, want one per worker and table (%d)", got, 3*cfg.Tables)
	}
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 1)
	rows := gen.Batch(cfg.Tables, 8, cfg.Reduction)
	got, err := embedTensor(s, rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Embedding.Forward(rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Data(), want.Data()) {
		t.Fatal("Deploy stack diverged from the golden embedding")
	}
	nd := s.Node()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if nd.AllocCount() != 0 {
		t.Fatalf("%d live allocations after Close", nd.AllocCount())
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
	if _, err := s.EmbedInto(nil, good, 0); err == nil {
		t.Fatal("want batch range error")
	}
	if _, err := s.EmbedInto(nil, good, 9); err == nil {
		t.Fatal("want batch > MaxBatch error")
	}
	if _, err := s.EmbedInto(nil, good[:1], 1); err == nil {
		t.Fatal("want table count error")
	}
	if _, err := s.EmbedInto(nil, [][]int{{1}, {2}}, 1); err == nil {
		t.Fatal("want row count error")
	}
	bad := gen.Batch(cfg.Tables, 1, cfg.Reduction)
	bad[1][0] = cfg.TableRows // out of range
	if _, err := s.EmbedInto(nil, bad, 1); err == nil {
		t.Fatal("want row range error")
	}
	// A valid request still succeeds after the rejected ones.
	if _, err := s.EmbedInto(nil, good, 1); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClientsMatchGolden is the core serving guarantee: many
// concurrent clients, merged arbitrarily by the workers, each get results
// bitwise-identical to the golden (unbatched, pure-software) model. Run
// with -race.
func TestConcurrentClientsMatchGolden(t *testing.T) {
	cfg := testConfig(3, 4, 128, true, isa.RAdd)
	golden := goldenModel(t, cfg)
	s, err := New(Config{MaxBatch: 16}, newDeployment(t, cfg, 16, 2, 2*cfg.Tables))
	if err != nil {
		t.Fatal(err)
	}
	reg := instrument(s)
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
				got, err := embedTensor(s, rows, batch)
				if err != nil {
					errs[c] = err
					return
				}
				want, err := golden.Embedding.Forward(rows, batch)
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
	if n := counter(t, reg, "requests"); n != clients*iters {
		t.Fatalf("completed %d requests, want %d", n, clients*iters)
	}
	total, _ := reg.Snapshot().Histogram("tensordimm_serve_total_seconds")
	if total.Count != clients*iters || total.P99 <= 0 {
		t.Fatalf("latency accounting: %+v", total)
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
	golden := goldenModel(t, cfg)
	s, err := New(Config{}, newDeployment(t, cfg, 8, 2, 4))
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
				emb, err := embedTensor(s, rows, 2)
				if err != nil {
					errs[c] = err
					return
				}
				got, err := golden.InferFromEmbeddings(emb)
				if err != nil {
					errs[c] = err
					return
				}
				want, err := golden.Infer(rows, 2)
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

// TestLoneReadFillsDestination pins the lone-read path: a merged batch
// holding exactly one embedding read reads back straight into that read's
// destination, with no scratch copy. Every read here runs alone on an idle
// server, into a NaN-filled buffer with room to spare: the batch*width
// prefix must come back golden in full, the spare tail untouched.
func TestLoneReadFillsDestination(t *testing.T) {
	cfg := testConfig(3, 4, 128, true, isa.RAdd)
	golden := goldenModel(t, cfg)
	s, err := New(Config{Workers: 1}, newDeployment(t, cfg, 8, 1, cfg.Tables))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := instrument(s)
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 5)
	width := s.Geometry().Width()
	nan := float32(math.NaN())
	for _, batch := range []int{1, 3, 8} {
		rows := gen.Batch(cfg.Tables, batch, cfg.Reduction)
		want, err := golden.Embedding.Forward(rows, batch)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float32, (batch+1)*width)
		for i := range buf {
			buf[i] = nan
		}
		got, err := s.EmbedInto(buf, rows, batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != batch*width || &got[0] != &buf[0] {
			t.Fatalf("batch %d: got %d floats at a different buffer, want the first %d of dst", batch, len(got), batch*width)
		}
		if !slices.Equal(got, want.Data()) {
			t.Fatalf("batch %d: lone read not bit-identical to the golden embedding", batch)
		}
		for i, v := range buf[batch*width:] {
			if v == v {
				t.Fatalf("batch %d: spare float %d past the read overwritten with %v", batch, i, v)
			}
		}
	}
	if r, b := counter(t, reg, "requests"), counter(t, reg, "batches"); r != 3 || b != 3 {
		t.Fatalf("%d requests in %d executions, want 3 lone reads", r, b)
	}
}

// stall holds the table barrier exclusively, so a worker that executes a
// read blocks at its gather until the returned release runs: requests pile
// up behind busy workers on the test's say-so, not a clock's.
func stall(s *Server) (release func()) {
	s.tblMu.Lock()
	return s.tblMu.Unlock
}

// startReads starts one read of each given sample count and returns the
// handles with the results to expect: golden's, which must match the
// server's current state.
func startReads(t *testing.T, s *Server, golden *recsys.Model, gen *workload.Generator, batches ...int) ([]Pending, [][]float32) {
	t.Helper()
	cfg := golden.Cfg
	pending := make([]Pending, len(batches))
	want := make([][]float32, len(batches))
	for i, b := range batches {
		rows := gen.Batch(cfg.Tables, b, cfg.Reduction)
		x, err := golden.Embedding.Forward(rows, b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = x.Data()
		if pending[i], err = s.StartEmbedInto(nil, rows, b); err != nil {
			t.Fatal(err)
		}
	}
	return pending, want
}

// waitGolden awaits every started read and checks it bit-identical to want.
func waitGolden(t *testing.T, pending []Pending, want [][]float32) {
	t.Helper()
	for i, p := range pending {
		got, err := p.Wait()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !slices.Equal(got, want[i]) {
			t.Fatalf("read %d not bit-identical to the golden embedding", i)
		}
	}
}

// closeDuringStall runs Close on its own goroutine, releases the stall only
// once Close has stopped admissions — so the drain, not a lucky schedule,
// is what delivers the requests already accepted — and returns Close's error.
func closeDuringStall(s *Server, release func()) error {
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	for s.gate.Enter() {
		s.gate.Exit()
		goruntime.Gosched()
	}
	release()
	return <-done
}

// TestServeTraceSumsToTotal: serve reads the clock once per boundary, so
// a traced read's queue and exec hops add up to its total exactly. The read
// is held behind the stalled worker until 2 ms have passed on the clock,
// which puts it over the tracer's 1 ms slow threshold.
func TestServeTraceSumsToTotal(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	s, err := New(Config{Workers: 1}, newDeployment(t, cfg, 8, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 6)
	release := stall(s)
	pending, want := startReads(t, s, goldenModel(t, cfg), gen, 1)
	for t0 := time.Now(); time.Since(t0) < 2*time.Millisecond; {
		goruntime.Gosched()
	}
	release()
	waitGolden(t, pending, want)
	slow := reg.SlowRequests()
	if len(slow) != 1 || slow[0].Tracer != "serve" || len(slow[0].Hops) != 2 {
		t.Fatalf("slow ring %+v, want one serve entry with two hops", slow)
	}
	sr := slow[0]
	if sum := sr.Hops[hopQueue].Nanos + sr.Hops[hopExec].Nanos; sum != sr.TotalNanos {
		t.Fatalf("queue %dns + exec %dns = %dns, want the total %dns exactly",
			sr.Hops[hopQueue].Nanos, sr.Hops[hopExec].Nanos, sum, sr.TotalNanos)
	}
}

// TestBatchingCoalesces queues 64 single-sample reads behind a stalled
// single worker: it took some prefix of them before it stalled and takes
// all the rest in one go afterwards, so there are at most two executions.
func TestBatchingCoalesces(t *testing.T) {
	const requests = 64
	cfg := testConfig(2, 5, 128, true, isa.RAdd)
	dep := newDeployment(t, cfg, requests, 1, cfg.Tables)
	s, err := New(Config{Workers: 1}, dep)
	if err != nil {
		t.Fatal(err)
	}
	reg := instrument(s)
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 3)
	singles := make([]int, requests)
	for i := range singles {
		singles[i] = 1
	}
	release := stall(s)
	pending, want := startReads(t, s, goldenModel(t, cfg), gen, singles...)
	release()
	waitGolden(t, pending, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r, n, b := counter(t, reg, "requests"), counter(t, reg, "samples"), counter(t, reg, "batches"); r != requests || n != requests || b > 2 {
		t.Fatalf("%d requests, %d samples in %d executions, want %d, %d in at most 2",
			r, n, b, requests, requests)
	}
}

// TestHeadOfLineCarry pins the one place a request waits for an execution
// it is not part of: a read that does not fit the batch a worker is forming
// heads that worker's next one, and nothing is lost or duplicated on the way
// — every read golden, every sample counted once.
func TestHeadOfLineCarry(t *testing.T) {
	for _, tc := range []struct {
		name        string
		reads       []int // sample counts, against MaxBatch 8 on one worker
		closeDuring bool  // Close lands before the stall is released
		batches     uint64
	}{
		// 5 | 5+3 however the arrivals raced: the second 5 either queued
		// behind the first or was taken, did not fit, and was carried.
		{"carried or queued", []int{5, 5, 3}, false, 2},
		// The full-batch 8 keeps the stalled worker from forming its next
		// batch until 5, 5 and 3 are all queued, so it is certain to hold
		// the second 5 as pending — over a queue Close has already closed.
		{"pending across Close", []int{8, 5, 5, 3}, true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2, 2, 128, false, isa.RAdd)
			s, err := New(Config{Workers: 1}, newDeployment(t, cfg, 8, 1, 2))
			if err != nil {
				t.Fatal(err)
			}
			reg := instrument(s)
			gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 4)
			release := stall(s)
			pending, want := startReads(t, s, goldenModel(t, cfg), gen, tc.reads...)
			if tc.closeDuring {
				err = closeDuringStall(s, release)
			} else {
				release()
			}
			if err != nil {
				t.Fatal(err)
			}
			waitGolden(t, pending, want)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			samples := 0
			for _, b := range tc.reads {
				samples += b
			}
			r, n, b, f := counter(t, reg, "requests"), counter(t, reg, "samples"), counter(t, reg, "batches"), counter(t, reg, "failures")
			if r != uint64(len(tc.reads)) || n != uint64(samples) || b != tc.batches || f != 0 {
				t.Fatalf("%d requests, %d samples, %d executions, %d failures, want %d, %d, %d, 0",
					r, n, b, f, len(tc.reads), samples, tc.batches)
			}
		})
	}
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
	if _, err := s.EmbedInto(nil, rows, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := s.EmbedInto(nil, rows, 1); err == nil {
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
		{MaxBatch: -1},
	} {
		if _, err := New(bad, d); err == nil {
			t.Fatalf("config %+v: want error, got server", bad)
		}
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
	s, err := New(Config{}, dep)
	if err != nil {
		t.Fatal(err)
	}
	reg := instrument(s)
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 3)
	// Stalled, so only Close's drain can deliver the three reads.
	release := stall(s)
	pending, want := startReads(t, s, goldenModel(t, cfg), gen, 2, 2, 2)
	if err := closeDuringStall(s, release); err != nil {
		t.Fatal(err)
	}
	waitGolden(t, pending, want)
	if _, err := s.StartEmbedInto(nil, gen.Batch(cfg.Tables, 1, cfg.Reduction), 1); err == nil {
		t.Fatal("want error from StartEmbedInto after Close")
	}
	if r, f := counter(t, reg, "requests"), counter(t, reg, "failures"); r != 3 || f != 0 {
		t.Fatalf("requests %d, failures %d after the drain, want 3, 0", r, f)
	}
}
