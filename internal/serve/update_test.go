package serve

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/isa"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
)

// randGrads returns a [len(rows), dim] gradient tensor with deterministic
// pseudo-random entries.
func randGrads(rng *rand.Rand, rows, dim int) *tensor.Tensor {
	g := tensor.New(rows, dim)
	for i := range g.Data() {
		g.Data()[i] = rng.Float32() - 0.5
	}
	return g
}

func TestUpdateValidation(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	s, err := New(Config{}, newDeployment(t, cfg, 8, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	if err := s.Update(nil); err == nil {
		t.Fatal("want empty-batch error")
	}
	if err := s.Update([]runtime.TableUpdate{{Table: 9, Rows: []int{1}, Grads: randGrads(rng, 1, cfg.EmbDim)}}); err == nil {
		t.Fatal("want table-range error")
	}
	if err := s.Update([]runtime.TableUpdate{{Table: 0, Rows: []int{cfg.TableRows}, Grads: randGrads(rng, 1, cfg.EmbDim)}}); err == nil {
		t.Fatal("want row-range error")
	}
	if err := s.Update([]runtime.TableUpdate{{Table: 0, Rows: []int{1, 2}, Grads: randGrads(rng, 1, cfg.EmbDim)}}); err == nil {
		t.Fatal("want gradient-shape error")
	}
	big := make([]int, s.cfg.MaxBatch*cfg.Reduction+1)
	if err := s.Update([]runtime.TableUpdate{{Table: 0, Rows: big, Grads: randGrads(rng, len(big), cfg.EmbDim)}}); err == nil {
		t.Fatal("want update-cap error")
	}
}

func TestUpdateVisibleToLaterReads(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	s, err := New(Config{Workers: 2}, newDeployment(t, cfg, 8, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := instrument(s)
	golden := goldenModel(t, cfg)
	rng := rand.New(rand.NewSource(2))
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 3)

	for step := 0; step < 5; step++ {
		ups := []runtime.TableUpdate{
			{Table: step % cfg.Tables, Rows: []int{7, 7, 11}, Grads: randGrads(rng, 3, cfg.EmbDim)},
		}
		if err := s.Update(ups); err != nil {
			t.Fatal(err)
		}
		runtime.AccumulateGolden(golden.Embedding.Tables[ups[0].Table], ups[0])
		rows := gen.Batch(cfg.Tables, 2, cfg.Reduction)
		rows[step%cfg.Tables] = []int{7, 11, 7, 12} // touch updated rows
		got, err := embedTensor(s, rows, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := golden.Embedding.Forward(rows, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("step %d: post-update embedding differs from golden", step)
		}
	}
	if u, r := counter(t, reg, "updates"), counter(t, reg, "update_rows"); u != 5 || r != 15 {
		t.Fatalf("update metrics: %d updates, %d rows", u, r)
	}
}

// TestUpdateNeverWaitsBehindReads: an update runs on its caller's
// goroutine, never in serve's read queue. The one worker is parked at its
// gather by stall with a full batch and more reads queue behind it; Update
// must still return (a 5 s watchdog bounds the wait), and a read started
// after it returns observes the update bit for bit. The queued reads avoid
// the updated row, so they match golden whichever side of the update they
// run on.
func TestUpdateNeverWaitsBehindReads(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	s, err := New(Config{Workers: 1}, newDeployment(t, cfg, 8, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	reg := instrument(s)
	golden := goldenModel(t, cfg)
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 8)
	const row = 7 // of table 0: the only row the update touches
	after := [][]int{{row, row}, {1, 2}}
	stale, err := golden.Embedding.Forward(after, 1)
	if err != nil {
		t.Fatal(err)
	}

	release := stall(s)
	var queued []Pending
	var want [][]float32
	for _, b := range []int{8, 1, 2} {
		rows := gen.Batch(cfg.Tables, b, cfg.Reduction)
		for i, r := range rows[0] {
			if r == row {
				rows[0][i] = row + 1
			}
		}
		x, err := golden.Embedding.Forward(rows, b)
		if err != nil {
			release()
			t.Fatal(err)
		}
		p, err := s.StartEmbedInto(nil, rows, b)
		if err != nil {
			release()
			t.Fatal(err)
		}
		queued, want = append(queued, p), append(want, x.Data())
	}
	upd := runtime.TableUpdate{Table: 0, Rows: []int{row}, Grads: randGrads(rand.New(rand.NewSource(9)), 1, cfg.EmbDim)}
	done := make(chan error, 1)
	go func() { done <- s.Update([]runtime.TableUpdate{upd}) }()
	select {
	case err := <-done:
		if err != nil {
			release()
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("Update waited behind the stalled worker's reads")
	}
	read, err := s.StartEmbedInto(nil, after, 1)
	release()
	if err != nil {
		t.Fatal(err)
	}

	waitGolden(t, queued, want)
	runtime.AccumulateGolden(golden.Embedding.Tables[0], upd)
	fresh, err := golden.Embedding.Forward(after, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(stale.Data(), fresh.Data()) {
		t.Fatal("the update did not change the row the read touches")
	}
	waitGolden(t, []Pending{read}, [][]float32{fresh.Data()})
	if u, f := counter(t, reg, "updates"), counter(t, reg, "failures"); u != 1 || f != 0 {
		t.Fatalf("%d updates, %d failures, want 1, 0", u, f)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateAbsorbsDuplicateRowsOnce: an update listing a row twice
// reaches the deployment once, so the node's table absorbs each of the two
// gradient rows exactly once, and later reads of the row match the golden
// model.
func TestUpdateAbsorbsDuplicateRowsOnce(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	s, err := New(Config{}, newDeployment(t, cfg, 8, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	golden := goldenModel(t, cfg)
	rng := rand.New(rand.NewSource(4))
	snap := append([]float32(nil), golden.Embedding.Tables[0].Row(3)...)
	g := randGrads(rng, 2, cfg.EmbDim)
	up := runtime.TableUpdate{Table: 0, Rows: []int{3, 3}, Grads: g}
	if err := s.Update([]runtime.TableUpdate{up}); err != nil {
		t.Fatal(err)
	}
	runtime.AccumulateGolden(golden.Embedding.Tables[0], up)
	// Row 3 pooled with itself: the RAdd reduction doubles it exactly, so
	// each lane reads back as 2 x (snap + g0 + g1).
	row3, err := s.EmbedInto(nil, [][]int{{3, 3}, {0, 0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := range snap {
		if want := 2 * (snap[k] + g.At(0, k) + g.At(1, k)); row3[k] != want {
			t.Fatalf("node lane %d: %v != %v (update applied twice?)", k, row3[k], want)
		}
	}
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 5)
	rows := gen.Batch(cfg.Tables, 1, cfg.Reduction)
	rows[0] = []int{3, 9}
	got, err := embedTensor(s, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := golden.Embedding.Forward(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("read of the updated row differs from golden")
	}
}

// TestGoldenMixedTrafficConcurrent hammers the server with concurrent
// readers and per-table updaters, then verifies the quiesced state matches
// the test's golden model bit-for-bit (per-table update order is
// deterministic because each table has exactly one updater, which
// accumulates each acknowledged update into its own golden table).
func TestGoldenMixedTrafficConcurrent(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	s, err := New(Config{Workers: 2}, newDeployment(t, cfg, 16, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	golden := goldenModel(t, cfg)
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 6)
	genMu := sync.Mutex{}

	steps := 8
	if testing.Short() {
		steps = 4
	}
	var wg sync.WaitGroup
	errs := make([]error, cfg.Tables+2)
	for tb := 0; tb < cfg.Tables; tb++ {
		wg.Add(1)
		go func(tb int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + tb)))
			for i := 0; i < steps; i++ {
				rows := []int{rng.Intn(cfg.TableRows), rng.Intn(cfg.TableRows)}
				up := runtime.TableUpdate{Table: tb, Rows: rows, Grads: randGrads(rng, 2, cfg.EmbDim)}
				if err := s.Update([]runtime.TableUpdate{up}); err != nil {
					errs[tb] = err
					return
				}
				runtime.AccumulateGolden(golden.Embedding.Tables[tb], up)
			}
		}(tb)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				genMu.Lock()
				rows := gen.Batch(cfg.Tables, 2, cfg.Reduction)
				genMu.Unlock()
				if _, err := s.EmbedInto(nil, rows, 2); err != nil {
					errs[cfg.Tables+r] = err
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
	// Quiesced: node tables and golden tables must agree bit-for-bit.
	genMu.Lock()
	rows := gen.Batch(cfg.Tables, 4, cfg.Reduction)
	genMu.Unlock()
	got, err := embedTensor(s, rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := golden.Embedding.Forward(rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("quiesced embedding differs from golden after mixed traffic")
	}
}

// TestCloseDrainsPendingMixedTraffic is the regression test for the Close
// drain guarantee: a Close racing a burst of reads and updates must never
// drop a queued request — every submitter gets exactly one reply (a result
// or a clean "server is closed" error), and every Close call returns only
// after the drain finished.
func TestCloseDrainsPendingMixedTraffic(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		s, err := New(Config{Workers: 2}, newDeployment(t, cfg, 16, 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		reg := instrument(s)
		gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, int64(round))

		const clients = 16
		replied := make(chan error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			rows := gen.Batch(cfg.Tables, 1, cfg.Reduction)
			wg.Add(1)
			go func(i int, rows [][]int) {
				defer wg.Done()
				if i%3 == 0 {
					g := tensor.New(1, cfg.EmbDim)
					g.Fill(0.5)
					replied <- s.Update([]runtime.TableUpdate{{Table: 0, Rows: []int{i}, Grads: g}})
					return
				}
				_, err := s.EmbedInto(nil, rows, 1)
				replied <- err
			}(i, rows)
		}
		// Race Close against the burst from two goroutines: both must block
		// until the drain completes.
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Close(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		close(replied)
		n, ok := 0, uint64(0)
		for err := range replied {
			n++
			if err == nil {
				ok++
			} else if err.Error() != "serve: server is closed" {
				t.Fatalf("round %d: unexpected error: %v", round, err)
			}
		}
		if n != clients {
			t.Fatalf("round %d: %d/%d clients got a reply", round, n, clients)
		}
		// Every accepted read and update, queued or running when Close
		// began, completed before Close returned: the counters account for
		// exactly the successful replies, and none failed.
		done := counter(t, reg, "requests") + counter(t, reg, "updates")
		if f := counter(t, reg, "failures"); done != ok || f != 0 {
			t.Fatalf("round %d: %d reads+updates counted, %d failures, want %d, 0", round, done, f, ok)
		}
	}
}
