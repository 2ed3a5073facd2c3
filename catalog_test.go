package tensordimm_test

import (
	"net"
	"os"
	"slices"
	"strings"
	"testing"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netserve"
	"tensordimm/internal/recsys"
	"tensordimm/internal/remote"
	"tensordimm/internal/serve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// catalogGolden lists every series a fully instrumented process exposes:
// one `kind name{labels} help` line per series, values stripped, sorted.
const catalogGolden = "testdata/series_catalog.txt"

// TestSeriesCatalog pins the registry's series catalog: the kind, name,
// labels and HELP text of every series registered by the Go runtime
// collector, a serve stack, a 2-shard cached cluster, a netserve front
// over it, and a durable remote router over a 2x1 replica fleet. The
// registry is the read surface of every serving layer, so a series that
// disappears, gains a label or changes kind breaks every report and
// scrape that reads it; this is where that shows.
func TestSeriesCatalog(t *testing.T) {
	want, err := os.ReadFile(catalogGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := seriesCatalog(t, catalogRegistry(t))
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	for _, l := range wantLines {
		if !slices.Contains(gotLines, l) {
			t.Errorf("series missing: %s", l)
		}
	}
	for _, l := range gotLines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("series not in %s: %s", catalogGolden, l)
		}
	}
	t.Logf("full catalog:\n%s", got)
}

// catalogRegistry builds every instrumented layer on one registry.
func catalogRegistry(t *testing.T) *telemetry.Registry {
	t.Helper()
	mc := recsys.Config{
		Name: "catalog", Tables: 2, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 301, Hidden: []int{8},
	}
	build := func() *recsys.Model {
		m, err := recsys.Build(mc, 42)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	reg := telemetry.NewRegistry()
	telemetry.RegisterGoRuntime(reg)

	srv, err := serve.Deploy(build(), 4, serve.Config{MaxBatch: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Instrument(reg)

	ccfg := cluster.Config{Nodes: 2, Strategy: cluster.RowWise, DIMMsPerNode: 4, MaxBatch: 16, Workers: 1, CacheBytes: 16 << 10}
	cl, err := cluster.New(build(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	cl.Instrument(reg)
	front, err := netserve.New(cl, netserve.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })

	addrs := make([][]string, ccfg.Nodes)
	for s := range addrs {
		rep, err := cluster.DeployShard(build(), ccfg, s)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := netserve.New(netserve.ServerBackend(rep), netserve.Config{Role: wire.RoleReplica})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go ns.Serve(l)
		t.Cleanup(func() { ns.Close(); rep.Close() })
		addrs[s] = []string{l.Addr().String()}
	}
	rc, err := remote.New(remote.Config{
		Model: mc, Strategy: ccfg.Strategy, Shards: addrs, MaxBatch: ccfg.MaxBatch, DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	rc.Instrument(reg)
	return reg
}

// seriesCatalog renders reg's Prometheus exposition as one line per series
// (a histogram is its _count sample), with its kind and HELP text and
// without its value.
func seriesCatalog(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	help := map[string]string{}
	var kind string
	var lines []string
	for _, l := range strings.Split(reg.PromText(), "\n") {
		switch {
		case l == "":
		case strings.HasPrefix(l, "# HELP "):
			name, text, _ := strings.Cut(strings.TrimPrefix(l, "# HELP "), " ")
			help[name] = text
		case strings.HasPrefix(l, "# TYPE "):
			_, kind, _ = strings.Cut(strings.TrimPrefix(l, "# TYPE "), " ")
		default:
			series := l[:strings.LastIndexByte(l, ' ')]
			name, labels, _ := strings.Cut(series, "{")
			if kind == "histogram" {
				base, ok := strings.CutSuffix(name, "_count")
				if !ok {
					continue
				}
				name = base
			}
			if labels != "" {
				labels = "{" + labels
			}
			lines = append(lines, kind+" "+name+labels+" "+help[name])
		}
	}
	if len(lines) == 0 {
		t.Fatal("registry exposed no series")
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}
