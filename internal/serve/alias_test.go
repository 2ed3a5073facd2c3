package serve

// Buffer-reuse aliasing tests: the serving path pools requests, reuses each
// worker's scratch, and EmbedInto writes into caller buffers. A
// put-before-last-read bug in any of those pools would surface as a result
// buffer changing after its request returned. These tests run mixed
// Embed/EmbedInto/Update traffic concurrently (run them under -race) and
// assert every returned result is still bit-identical to the snapshot
// taken at return time after all traffic has drained.

import (
	"sync"
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/workload"
)

func TestResultsImmutableUnderConcurrentEmbedUpdate(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	d := newDeployment(t, cfg, 16, 2, 4)
	s, err := New(Config{MaxBatch: 16, Workers: 2}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		readers  = 4
		updaters = 2
		rounds   = 30
		batch    = 2
	)
	type held struct {
		got  *tensor.Tensor
		want *tensor.Tensor // deep copy taken the moment got was returned
	}
	results := make([][]held, readers)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+updaters)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, int64(g))
			for i := 0; i < rounds; i++ {
				rows := gen.Batch(cfg.Tables, batch, cfg.Reduction)
				got, err := embedTensor(s, rows, batch)
				if err != nil {
					errCh <- err
					return
				}
				results[g] = append(results[g], held{got: got, want: got.Clone()})
			}
		}(g)
	}
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, int64(100+u))
			for i := 0; i < rounds; i++ {
				grads := tensor.New(3, cfg.EmbDim)
				grads.Fill(float32(u+1) * 0.25)
				up := runtime.TableUpdate{Table: u % cfg.Tables, Rows: gen.Indices(3), Grads: grads}
				if err := s.Update([]runtime.TableUpdate{up}); err != nil {
					errCh <- err
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Every result must still match the snapshot taken at return time: the
	// pools have been recycled through rounds of later traffic, so any
	// put-before-last-read aliasing would have scribbled on one by now.
	for g, rs := range results {
		for i, h := range rs {
			if !tensor.Equal(h.got, h.want) {
				t.Fatalf("reader %d result %d mutated after return", g, i)
			}
		}
	}
}

func TestEmbedIntoBufferStableAfterReturn(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	d := newDeployment(t, cfg, 16, 2, 4)
	s, err := New(Config{MaxBatch: 16, Workers: 2}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const batch = 2
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 5)
	rows := gen.Batch(cfg.Tables, batch, cfg.Reduction)
	dst, err := s.EmbedInto(nil, rows, batch)
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]float32(nil), dst...)

	// Flood the server with other traffic on other buffers; dst must not
	// be written again (the server may not retain caller buffers).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, int64(40+g))
			var buf []float32
			for i := 0; i < 50; i++ {
				b, err := s.EmbedInto(buf, gen.Batch(cfg.Tables, batch, cfg.Reduction), batch)
				if err != nil {
					t.Error(err)
					return
				}
				buf = b
			}
		}(g)
	}
	wg.Wait()
	for i := range dst {
		if dst[i] != snap[i] {
			t.Fatalf("dst[%d] changed after return: %v != %v", i, dst[i], snap[i])
		}
	}
}
