package remote_test

import (
	"net"
	"testing"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/node"
	"tensordimm/internal/runtime"
	"tensordimm/internal/serve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// clientEntry gives a netclient.Client the routers' update entry point.
type clientEntry struct{ *netclient.Client }

func (c clientEntry) ApplyUpdates(ups []runtime.TableUpdate) error { return c.Update(ups) }

// deploymentEntry gives a runtime.Deployment the routers' read entry point.
type deploymentEntry struct{ *runtime.Deployment }

func (d deploymentEntry) EmbedInto(_ []float32, rows [][]int, batch int) ([]float32, error) {
	dst := make([]float32, max(batch, 0)*d.Geometry().Width())
	if err := d.RunEmbeddingInto(dst, rows, batch); err != nil {
		return nil, err
	}
	return dst, nil
}

// TestRequestValidationBothRouters runs one table of malformed reads and
// updates against every entry point that takes them: the in-process
// Cluster and the RemoteCluster (thin owners of one router core), a
// runtime.Deployment, a serve.Server, and a netclient.Client talking to a
// replica netserve in front of that server. All of them apply the one
// request contract (wire.Geometry.CheckRead, runtime.CheckUpdates), so each
// must reject exactly the same submissions — before any of them does work
// — and count none of them.
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
	reg := telemetry.NewRegistry()
	local.Instrument(reg)
	fleet.Instrument(reg)

	nd, err := node.New(node.Config{DIMMs: 4, PerDIMMBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	dep, err := runtime.Deploy(buildModel(t), nd, testMaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Release()
	srv, err := serve.Deploy(buildModel(t), 4, serve.Config{MaxBatch: testMaxBatch, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Instrument(reg)
	ns, err := netserve.New(netserve.ServerBackend(srv), netserve.Config{Role: wire.RoleReplica, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ns.Serve(l)
	defer ns.Close()
	cl, err := netclient.Dial(l.Addr().String(), netclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	entries := map[string]interface {
		EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error)
		ApplyUpdates(ups []runtime.TableUpdate) error
	}{
		"cluster":   local,
		"remote":    fleet,
		"runtime":   deploymentEntry{dep},
		"serve":     netserve.ServerBackend(srv),
		"netclient": clientEntry{cl},
	}

	good := func() [][]int {
		rows := make([][]int, mc.Tables)
		for t := range rows {
			rows[t] = make([]int, mc.Reduction)
		}
		return rows
	}
	badRow, nextTable, pastLast, negRow, shortList := good(), good(), good(), good(), good()
	badRow[1][0] = mc.TableRows
	nextTable[0][1] = mc.TableRows // table 0's row TableRows is table 1's row 0 in the pool
	pastLast[mc.Tables-1][0] = mc.TableRows + 3
	negRow[0][0] = -1
	shortList[0] = shortList[0][:1]
	reads := []struct {
		name  string
		rows  [][]int
		batch int
	}{
		{"zero batch", good(), 0},
		{"negative batch", good(), -1},
		{"batch above MaxBatch", good(), testMaxBatch + 1},
		{"missing table list", good()[:1], 1},
		{"row index out of range", badRow, 1},
		{"row index of the next table", nextTable, 1},
		{"row index past the last table", pastLast, 1},
		{"negative row index", negRow, 1},
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
		{"negative table", []runtime.TableUpdate{{Table: -1, Rows: []int{0}, Grads: g(1)}}},
		{"row index out of range", []runtime.TableUpdate{{Table: 0, Rows: []int{mc.TableRows}, Grads: g(1)}}},
		{"negative row index", []runtime.TableUpdate{{Table: 0, Rows: []int{-1}, Grads: g(1)}}},
		{"gradient shape", []runtime.TableUpdate{{Table: 0, Rows: []int{0, 1}, Grads: g(1)}}},
		{"gradient dim", []runtime.TableUpdate{{Table: 0, Rows: []int{0}, Grads: tensor.New(1, mc.EmbDim+1)}}},
		{"nil gradients", []runtime.TableUpdate{{Table: 0, Rows: []int{0}}}},
		{"zero rows", []runtime.TableUpdate{{Table: 0, Rows: []int{}, Grads: g(0)}}},
		{"rows above the cap", []runtime.TableUpdate{{Table: 0, Rows: make([]int, maxRows+1), Grads: g(maxRows + 1)}}},
		{"bad entry after a good one", []runtime.TableUpdate{
			{Table: 0, Rows: []int{0}, Grads: g(1)},
			{Table: 1, Rows: []int{}, Grads: g(0)},
		}},
	}

	nmpBefore := nd.Stats()
	for name, e := range entries {
		for _, tc := range reads {
			if _, err := e.EmbedInto(nil, tc.rows, tc.batch); err == nil {
				t.Errorf("%s: read with %s accepted", name, tc.name)
			}
		}
		for _, tc := range updates {
			if err := e.ApplyUpdates(tc.ups); err == nil {
				t.Errorf("%s: update with %s accepted", name, tc.name)
			}
		}
	}
	snap := reg.Snapshot()
	get := func(layer, name string) uint64 { // tensordimm_<layer>_<name>_total
		t.Helper()
		v, ok := snap.Counter("tensordimm_" + layer + "_" + name + "_total")
		if !ok {
			t.Fatalf("no %s series %s", layer, name)
		}
		return v
	}
	if r, u, f := get("cluster", "requests"), get("cluster", "updates"), get("cluster", "failures"); r+u+f != 0 {
		t.Errorf("cluster counted rejected submissions: %d requests, %d updates, %d failures", r, u, f)
	}
	if r, u, f := get("remote", "requests"), get("remote", "updates"), get("remote", "failures"); r+u+f != 0 {
		t.Errorf("remote counted rejected submissions: %d requests, %d updates, %d failures", r, u, f)
	}
	if s := nd.Stats(); s != nmpBefore {
		t.Errorf("runtime executed work for rejected submissions: node stats %+v, before %+v", s, nmpBefore)
	}
	if r, u, f, b := get("serve", "requests"), get("serve", "updates"), get("serve", "failures"), get("serve", "batches"); r+u+f+b != 0 {
		t.Errorf("serve counted rejected submissions: %d requests, %d updates, %d failures, %d batches", r, u, f, b)
	}
	if r, u, f, b := get("net", "requests"), get("net", "updates"), get("net", "failures"), get("net", "bad_frames"); r+u+f+b != 0 {
		t.Errorf("netclient sent rejected submissions: the server counted %d requests, %d updates, %d failures, %d bad frames", r, u, f, b)
	}
}
