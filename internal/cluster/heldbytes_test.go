//go:build !race

// The held-bytes pin is compiled out under the race detector, whose shadow
// memory and instrumentation distort heap accounting.

package cluster

import (
	"runtime"
	"testing"

	"tensordimm/internal/recsys"
	"tensordimm/internal/serve"
)

// heapAfterGC returns the live heap after two collections (the second
// sweeps what the first's finalizers released).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeldBytes pins what a serving stack keeps once its caller dropped
// the model it was built from: the node's rank stores, sized to the
// deployment's reservations, and little else. With the tables dominating
// the geometry, serve.Deploy and New (both strategies) must hold at most
// 1.3x the table bytes — no host-side mirror of a table survives the
// build, and the node carries no headroom. One DIMM per node keeps the
// rank store's huge-page alignment slack (up to 2 MiB per DIMM on Linux)
// small beside the tables.
func TestHeldBytes(t *testing.T) {
	mc := recsys.Config{
		Name: "held", Tables: 4, Reduction: 1, FCLayers: 1,
		EmbDim: 128, TableRows: 16384, Hidden: []int{16},
	}
	tableBytes := float64(mc.TotalTableBytes()) // 32 MiB
	type closer interface{ Close() error }
	for _, tc := range []struct {
		name  string
		build func(*recsys.Model) (closer, error)
	}{
		{"serve.Deploy", func(m *recsys.Model) (closer, error) {
			return serve.Deploy(m, 1, serve.Config{MaxBatch: 64, Workers: 2})
		}},
		{"New/table-wise", func(m *recsys.Model) (closer, error) {
			return New(m, Config{Nodes: 2, DIMMsPerNode: 1})
		}},
		{"New/row-wise", func(m *recsys.Model) (closer, error) {
			return New(m, Config{Nodes: 2, DIMMsPerNode: 1, Strategy: RowWise})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := heapAfterGC()
			// The model lives only inside this call, as a caller that
			// drops it after the build.
			stack, err := func() (closer, error) {
				m, err := recsys.Build(mc, 3)
				if err != nil {
					return nil, err
				}
				return tc.build(m)
			}()
			if err != nil {
				t.Fatal(err)
			}
			defer stack.Close()
			held := float64(int64(heapAfterGC()) - int64(base))
			runtime.KeepAlive(stack)
			ratio := held / tableBytes
			t.Logf("%s holds %.2fx the table bytes (%.1f MiB)", tc.name, ratio, held/(1<<20))
			if ratio > 1.3 {
				t.Errorf("%s holds %.2fx the table bytes, want <= 1.3x", tc.name, ratio)
			}
		})
	}
}
