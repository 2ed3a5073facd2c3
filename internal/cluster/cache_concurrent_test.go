package cluster

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestRowCacheConcurrentCoherence runs the router's cache protocol — probe
// a batch, read the misses from the table, fill at the probed version —
// from several readers against a writer that, like an update under its
// table lock, commits a new row value and invalidates the row, all on a
// 4-row cache so every fill evicts. While it runs, no hit may serve a value
// older than one the reader already saw committed; after quiescence the
// cache must hold at most its budget, keep the slot index, the free stack
// and the reference bits in agreement, and hold for every resident row the
// last committed value: a fill that raced an invalidate is dropped whole,
// never parked stale.
func TestRowCacheConcurrentCoherence(t *testing.T) {
	const dim, capRows, localRows, readers, rounds, batch = 16, 4, 8, 4, 500, 3
	c := newRowCache(capRows*dim*4, dim, localRows)
	var tableMu sync.Mutex              // held across commit + invalidate
	table := make([]float32, localRows) // row -> the value filling its payload

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			rows, hit := make([]int, batch), make([]bool, batch)
			dst, vecs := make([]float32, batch*dim), make([]float32, 0, batch*dim)
			seen := make([]float32, localRows) // newest committed value this reader read
			for i := 0; i < rounds; i++ {
				for k := range rows {
					rows[k] = rng.Intn(localRows)
				}
				ver := c.probe(rows, hit, dst)
				misses, hits := rows[:0:0], 0
				vecs = vecs[:0]
				tableMu.Lock()
				for k, row := range rows {
					if hit[k] {
						if got := dst[hits*dim]; got < seen[row] {
							t.Errorf("row %d served %v from the cache after %v was committed and invalidated", row, got, seen[row])
						}
						hits++
					} else {
						misses = append(misses, row)
						vecs = append(vecs, vec(dim, table[row])...)
					}
				}
				for _, row := range rows { // only now: a row can repeat within the batch
					seen[row] = table[row]
				}
				tableMu.Unlock()
				runtime.Gosched() // let a commit + invalidate land between gather and fill
				c.fill(misses, vecs, ver)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 1; i <= rounds; i++ {
			row := rng.Intn(localRows)
			tableMu.Lock()
			table[row] = float32(i)
			c.invalidate([]int{row})
			tableMu.Unlock()
		}
	}()
	wg.Wait()

	if got := c.hits.Load() + c.misses.Load(); got != readers*rounds*batch {
		t.Fatalf("hits+misses = %d, want %d", got, readers*rounds*batch)
	}
	resident := clockState(t, c) // also checks the index, the free stack and the bits
	if len(resident) != c.len() || len(resident) > capRows {
		t.Fatalf("%d rows resident, len() %d, budget %d rows", len(resident), c.len(), capRows)
	}
	for row := range resident {
		if got, _ := c.get(row); !slices.Equal(got, vec(dim, table[row])) {
			t.Fatalf("row %d resident with payload %v, last committed value %v", row, got[0], table[row])
		}
	}
}

// TestProbeNeverWaitsForProbe pins what makes a hit cheap: a probe takes
// the cache's lock shared, so it runs while another holder of the read
// lock (standing in for a concurrent probe) is still inside.
func TestProbeNeverWaitsForProbe(t *testing.T) {
	const dim = 16
	c := newRowCache(4*dim*4, dim, 8)
	c.put(3, vec(dim, 3))
	c.mu.RLock()
	defer c.mu.RUnlock()
	done := make(chan bool, 1)
	go func() {
		var hit [1]bool
		c.probe([]int{3}, hit[:], make([]float32, dim))
		done <- hit[0]
	}()
	select {
	case hit := <-done:
		if !hit {
			t.Fatal("row 3 missed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a probe waited 5 s for a concurrent holder of the read lock")
	}
}

// BenchmarkRowCacheProbe measures the hit path under contention: every
// goroutine probes the same 16 resident rows, so with -cpu > 1 the cost of
// any write a hit makes to shared cache state shows up as ns/op.
func BenchmarkRowCacheProbe(b *testing.B) {
	const dim, batch = 64, 16
	c := newRowCache(batch*dim*4, dim, 1024)
	rows := make([]int, batch)
	for i := range rows {
		rows[i] = i * 7
		c.put(rows[i], vec(dim, float32(i)))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		hit, dst := make([]bool, batch), make([]float32, batch*dim)
		for pb.Next() {
			c.probe(rows, hit, dst)
		}
	})
	if c.misses.Load() != 0 {
		b.Fatalf("%d misses on an all-hit probe", c.misses.Load())
	}
}
