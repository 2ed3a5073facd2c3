package remote_test

import (
	"testing"

	"tensordimm/internal/cluster"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
)

// TestRequestValidationBothRouters runs one table of malformed reads and
// updates against the in-process Cluster and the RemoteCluster: both are
// thin owners of the same router core, so both must reject exactly the
// same submissions — before anything reaches a shard — and count none of
// them.
func TestRequestValidationBothRouters(t *testing.T) {
	m := buildModel(t)
	mc := m.Cfg
	local, err := cluster.New(m, cluster.Config{Nodes: 2, DIMMsPerNode: 4, MaxBatch: testMaxBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	_, addrs := startFleet(t, cluster.TableWise, 2, 1)
	fleet := newRouter(t, buildModel(t), cluster.TableWise, addrs, nil)
	routers := map[string]interface {
		EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error)
		ApplyUpdates(ups []runtime.TableUpdate) error
	}{
		"cluster": local,
		"remote":  fleet,
	}

	good := func() [][]int {
		rows := make([][]int, mc.Tables)
		for t := range rows {
			rows[t] = make([]int, mc.Reduction)
		}
		return rows
	}
	badRow, shortList := good(), good()
	badRow[1][0] = mc.TableRows
	shortList[0] = shortList[0][:1]
	reads := []struct {
		name  string
		rows  [][]int
		batch int
	}{
		{"zero batch", good(), 0},
		{"batch above MaxBatch", good(), testMaxBatch + 1},
		{"missing table list", good()[:1], 1},
		{"row index out of range", badRow, 1},
		{"short row list", shortList, 1},
	}

	g := func(n int) *tensor.Tensor { return tensor.New(n, mc.EmbDim) }
	maxRows := testMaxBatch * mc.Reduction
	updates := []struct {
		name string
		ups  []runtime.TableUpdate
	}{
		{"empty batch", nil},
		{"table out of range", []runtime.TableUpdate{{Table: mc.Tables, Rows: []int{0}, Grads: g(1)}}},
		{"row index out of range", []runtime.TableUpdate{{Table: 0, Rows: []int{mc.TableRows}, Grads: g(1)}}},
		{"negative row index", []runtime.TableUpdate{{Table: 0, Rows: []int{-1}, Grads: g(1)}}},
		{"gradient shape", []runtime.TableUpdate{{Table: 0, Rows: []int{0, 1}, Grads: g(1)}}},
		{"nil gradients", []runtime.TableUpdate{{Table: 0, Rows: []int{0}}}},
		{"zero rows", []runtime.TableUpdate{{Table: 0, Rows: []int{}, Grads: g(0)}}},
		{"rows above the cap", []runtime.TableUpdate{{Table: 0, Rows: make([]int, maxRows+1), Grads: g(maxRows + 1)}}},
		{"bad entry after a good one", []runtime.TableUpdate{
			{Table: 0, Rows: []int{0}, Grads: g(1)},
			{Table: 1, Rows: []int{}, Grads: g(0)},
		}},
	}

	for name, r := range routers {
		for _, tc := range reads {
			if _, err := r.EmbedInto(nil, tc.rows, tc.batch); err == nil {
				t.Errorf("%s: read with %s accepted", name, tc.name)
			}
		}
		for _, tc := range updates {
			if err := r.ApplyUpdates(tc.ups); err == nil {
				t.Errorf("%s: update with %s accepted", name, tc.name)
			}
		}
	}
	if lm := local.Metrics(); lm.Requests+lm.Updates+lm.Failures != 0 {
		t.Errorf("cluster counted rejected submissions: %d requests, %d updates, %d failures", lm.Requests, lm.Updates, lm.Failures)
	}
	if rm := fleet.Metrics(); rm.Requests+rm.Updates+rm.Failures != 0 {
		t.Errorf("remote counted rejected submissions: %d requests, %d updates, %d failures", rm.Requests, rm.Updates, rm.Failures)
	}
}
