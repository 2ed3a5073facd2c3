package serve

import (
	"math"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/runtime"
)

// TestRestoreUnderLiveTraffic drives Restore against the traffic a replica
// sees while a snapshot is installed. Part (a) runs Update, EmbedInto and
// Restore concurrently on the same rows (meant for -race): every call
// succeeds, and after one final Restore the served read and a read straight
// from the deployment both hold the restored values bit for bit. Part (b) pins the gather
// barrier: while stall holds it, Restore parks on it without writing a
// row; once it is released, Restore completes.
func TestRestoreUnderLiveTraffic(t *testing.T) {
	// Reduction 1: a read of one row per table returns the rows themselves.
	cfg := testConfig(2, 1, 128, false, isa.RAdd)
	rows := []int{3, 5, 9}
	vals := make([]float32, len(rows)*cfg.EmbDim)
	for i := range vals {
		vals[i] = float32(i%97) * 0.25
	}
	// check fails unless every row reads back, served and from the
	// deployment, as vals.
	check := func(t *testing.T, s *Server) {
		t.Helper()
		for i, r := range rows {
			want := vals[i*cfg.EmbDim : (i+1)*cfg.EmbDim]
			got, err := s.EmbedInto(nil, [][]int{{r}, {0}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got[:cfg.EmbDim], want) {
				t.Fatalf("row %d: served read differs from the restored values", r)
			}
			if !sameBits(depRow(t, s, r), want) {
				t.Fatalf("row %d: deployment row differs from the restored values", r)
			}
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		s, err := New(Config{Workers: 2}, newDeployment(t, cfg, 8, 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		const goroutines, ops = 3, 40
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(3)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < ops; i++ {
					up := []runtime.TableUpdate{{Table: 0, Rows: rows, Grads: randGrads(rng, len(rows), cfg.EmbDim)}}
					if err := s.Update(up); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
			go func() {
				defer wg.Done()
				var dst []float32
				for i := 0; i < ops; i++ {
					var err error
					if dst, err = s.EmbedInto(dst, [][]int{{rows[i%len(rows)]}, {rows[0]}}, 1); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					if err := s.Restore(0, rows, vals); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if err := s.Restore(0, rows, vals); err != nil {
			t.Fatal(err)
		}
		check(t, s)
	})

	t.Run("waits-for-gather-barrier", func(t *testing.T) {
		s, err := New(Config{Workers: 1}, newDeployment(t, cfg, 8, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		before := depRow(t, s, rows[0])
		release := stall(s)
		done := make(chan error, 1)
		go func() { done <- s.Restore(0, rows, vals) }()
		// Wait until Restore is parked on the barrier; failing instead if it
		// returns first.
		for !parkedOnBarrier() {
			select {
			case err := <-done:
				release()
				t.Fatalf("Restore returned (err %v) while the gather barrier was held", err)
			default:
				goruntime.Gosched()
			}
		}
		if !sameBits(depRow(t, s, rows[0]), before) {
			release()
			t.Fatal("Restore wrote a row while the gather barrier was held")
		}
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		check(t, s)
	})
}

// depRow reads row r of table 0 (reduction 1) straight from the server's
// deployment, past the batcher and the gather barrier.
func depRow(t *testing.T, s *Server, r int) []float32 {
	t.Helper()
	rows := make([][]int, s.geom.Tables)
	for i := range rows {
		rows[i] = []int{r}
	}
	dst := make([]float32, s.geom.Width())
	if err := s.dep.RunEmbeddingInto(dst, rows, 1); err != nil {
		t.Fatal(err)
	}
	return dst[:s.geom.Dim]
}

// TestCloseWaitsForRunningRestore pins that Restore is an admitted caller
// like a read or an update: with the gather barrier held shared, a Restore
// parks on it after admission, and a Close begun meanwhile must wait in
// its drain instead of releasing the deployment under the restore. Once
// the barrier is released, Restore succeeds and then Close returns. Both
// waits are observed by polling the goroutine stacks, never by sleeping.
func TestCloseWaitsForRunningRestore(t *testing.T) {
	cfg := testConfig(2, 1, 128, false, isa.RAdd)
	s, err := New(Config{Workers: 1}, newDeployment(t, cfg, 8, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{3, 5}
	vals := make([]float32, len(rows)*cfg.EmbDim)
	s.tblMu.RLock()
	restored, closed := make(chan error, 1), make(chan error, 1)
	go func() { restored <- s.Restore(0, rows, vals) }()
	for !parkedOnBarrier() {
		select {
		case err := <-restored:
			s.tblMu.RUnlock()
			t.Fatalf("Restore returned (err %v) while the gather barrier was held", err)
		default:
			goruntime.Gosched()
		}
	}
	go func() { closed <- s.Close() }()
	for !parked("sync.(*WaitGroup).Wait", "gate.(*Gate).Close", "serve.(*Server).Close") {
		select {
		case err := <-closed:
			s.tblMu.RUnlock()
			t.Fatalf("Close returned (err %v) while a restore was running", err)
		default:
			goruntime.Gosched()
		}
	}
	if !parkedOnBarrier() {
		s.tblMu.RUnlock()
		t.Fatal("Restore stopped waiting on the barrier before it was released")
	}
	s.tblMu.RUnlock()
	if err := <-restored; err != nil {
		t.Fatalf("Restore after release: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// parkedOnBarrier reports whether some goroutine is blocked in Restore on
// an exclusive lock of the server's gather barrier.
func parkedOnBarrier() bool { return parked("sync.(*RWMutex).Lock", "serve.(*Server).Restore") }

// parked reports whether some goroutine's stack holds every one of
// frames: the blocking call and its callers.
func parked(frames ...string) bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:goruntime.Stack(buf, true)]), "\n\n") {
		all := true
		for _, f := range frames {
			all = all && strings.Contains(g, f)
		}
		if all {
			return true
		}
	}
	return false
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
