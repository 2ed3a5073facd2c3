// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sections 3 and 6). Every driver returns the same
// rows/series the paper plots, as a Table, so the benchmark harness,
// the CLI tools and EXPERIMENTS.md all report identical data.
//
// Drivers that replay DRAM traces (Figures 11 and 12) accept a Scale knob:
// ScaleSmoke runs a minimal sweep (seconds, for -short test runs),
// ScaleQuick trims the sweep for CI-sized runs, ScaleFull reproduces the
// paper's full parameter grid.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"tensordimm/internal/addrmap"
	"tensordimm/internal/cluster"
	"tensordimm/internal/core"
	"tensordimm/internal/dram"
	"tensordimm/internal/isa"
	"tensordimm/internal/power"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/stats"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
	"tensordimm/internal/trace"
	"tensordimm/internal/workload"
)

// Scale selects sweep size for simulation-heavy experiments.
type Scale int

// Sweep scales. ScaleQuick is the default; ScaleSmoke exists for -short
// test runs and still exercises every code path of the DRAM-replay drivers
// at a fraction of the sweep.
const (
	ScaleQuick Scale = iota
	ScaleFull
	ScaleSmoke
)

// Result is one reproduced artifact.
type Result struct {
	ID    string // "fig11", "tab3", ...
	Title string
	Table Table
	Notes []string
}

// Tab1 reproduces Table 1: the baseline TensorNode configuration.
func Tab1() Result {
	p := core.DefaultPlatform()
	t := Table{
		Title:   "Table 1: baseline TensorNode configuration",
		Columns: []string{"parameter", "value"},
	}
	t.AddRow("DRAM specification", "DDR4 (PC4-25600)")
	t.AddRow("Number of TensorDIMMs", fmt.Sprintf("%d", p.NodeDIMMs))
	t.AddRow("Memory bandwidth per TensorDIMM", fmt.Sprintf("%.1f GB/sec", p.DIMMBandwidthGBs))
	t.AddRow("Memory bandwidth across TensorNode", fmt.Sprintf("%.1f GB/sec", p.NodePeakGBs()))
	return Result{ID: "tab1", Title: "Baseline TensorNode configuration", Table: t}
}

// Tab2 reproduces Table 2: the evaluated benchmarks.
func Tab2() Result {
	t := Table{
		Title:   "Table 2: evaluated benchmarks and default configuration",
		Columns: []string{"network", "lookup tables", "max reduction", "FC/MLP layers"},
	}
	for _, cfg := range recsys.All() {
		t.AddRow(cfg.Name, cfg.Tables, cfg.Reduction, cfg.FCLayers)
	}
	return Result{ID: "tab2", Title: "Evaluated benchmarks", Table: t}
}

// Fig3 reproduces Figure 3: NCF model size growth as the MLP dimension
// (x-axis) and embedding dimension (y-axis) scale, with 5M users and 5M
// items per lookup table.
func Fig3() Result {
	mlpDims := []int{64, 256, 1024, 4096, 8192}
	embDims := []int{64, 512, 2048, 8192, 32768}
	cols := []string{"emb dim \\ mlp dim"}
	for _, m := range mlpDims {
		cols = append(cols, fmt.Sprintf("%d", m))
	}
	t := Table{
		Title:   "Figure 3: NCF model size (GB), 5M users + 5M items per table",
		Columns: cols,
	}
	const users, items = 5_000_000, 5_000_000
	for _, e := range embDims {
		row := []any{fmt.Sprintf("%d", e)}
		for _, m := range mlpDims {
			gb := float64(recsys.NCFModelSizeBytes(m, e, users, items)) / (1 << 30)
			row = append(row, fmt.Sprintf("%.0f", gb))
		}
		t.AddRow(row...)
	}
	return Result{
		ID: "fig3", Title: "NCF model size growth", Table: t,
		Notes: []string{"Embedding dimension dominates model growth; MLP dimension barely moves it."},
	}
}

// Fig4 reproduces Figure 4: CPU-only and CPU-GPU performance normalized to
// the GPU-only oracle across batch sizes 1..128.
func Fig4(p core.Platform) Result {
	t := Table{
		Title:   "Figure 4: baseline performance normalized to oracular GPU-only",
		Columns: []string{"network", "batch", "CPU-only", "CPU-GPU"},
	}
	var cpuAll, hybridAll []float64
	for _, cfg := range recsys.All() {
		for _, b := range []int{1, 8, 64, 128} {
			cpu := core.NormalizedPerf(core.CPUOnly, cfg, b, p)
			hy := core.NormalizedPerf(core.CPUGPU, cfg, b, p)
			cpuAll = append(cpuAll, cpu)
			hybridAll = append(hybridAll, hy)
			t.AddRow(cfg.Name, b, cpu, hy)
		}
	}
	t.AddRow("average", "-", stats.Geomean(cpuAll), stats.Geomean(hybridAll))
	return Result{
		ID: "fig4", Title: "Baseline CPU-only / CPU-GPU vs oracle", Table: t,
		Notes: []string{fmt.Sprintf("Geomean slowdowns: CPU-only %.1fx, CPU-GPU %.1fx (paper: 7.3-20.9x).",
			1/stats.Geomean(cpuAll), 1/stats.Geomean(hybridAll))},
	}
}

// fig11Batches returns the batch sweep for the DRAM experiments.
func fig11Batches(s Scale) []int {
	switch s {
	case ScaleFull:
		var out []int
		for b := 2; b <= 128; b += 6 {
			out = append(out, b)
		}
		return out
	case ScaleSmoke:
		return []int{8}
	default:
		return []int{2, 32, 64, 128}
	}
}

// dramSystems builds the two memory systems of Figure 11: the 8-channel x
// 4-rank CPU organization and the N-DIMM TensorNode, both with 32 DIMMs by
// default.
func dramSystems(nodeDIMMs int) (cpu, node *dram.System) {
	cpu = dram.NewSystem(addrmap.CPUBaseline(8, 4, 1<<16), dram.DDR43200())
	node = dram.NewSystem(addrmap.TensorDIMM(nodeDIMMs, 1<<16), dram.DDR43200())
	return cpu, node
}

// runOp replays one tensor-op trace and returns achieved GB/s.
func runOp(sys *dram.System, op string, g *trace.Generator, l trace.Layout, indices []int, batch, reduction int) float64 {
	var reqs []dram.Request
	switch op {
	case "GATHER":
		reqs = g.Gather(l, indices)
	case "REDUCE":
		reqs = g.Reduce(l, batch*reduction)
	case "AVERAGE":
		reqs = g.Average(l, batch, reduction)
	}
	res := sys.Run(reqs)
	return res.BandwidthGBs(sys.Timing)
}

// Fig11 reproduces Figure 11: effective memory bandwidth of the three
// TensorISA operations on the CPU memory system vs the TensorNode, swept
// over batch size (dim 512 embeddings, 50-way reduction — the
// YouTube/Fox-class configuration).
func Fig11(s Scale) Result {
	const embBytes, reduction = 2048, 50
	g, err := trace.NewGenerator(embBytes, 200_000)
	if err != nil {
		panic(err) // static configuration, cannot fail
	}
	cpu, node := dramSystems(32)
	t := Table{
		Title: "Figure 11: memory bandwidth utilization (GB/s), CPU (8ch x 4rk) vs TensorNode (32 TensorDIMMs)",
		Columns: []string{"batch",
			"GATHER(CPU)", "REDUCE(CPU)", "AVERAGE(CPU)",
			"GATHER(TDIMM)", "REDUCE(TDIMM)", "AVERAGE(TDIMM)"},
	}
	rng := rand.New(rand.NewSource(11))
	var cpuPeakSeen, nodePeakSeen float64
	var cpuAll, nodeAll []float64
	for _, batch := range fig11Batches(s) {
		n := batch * reduction
		indices := make([]int, n)
		for i := range indices {
			indices[i] = rng.Intn(g.TableRows)
		}
		row := []any{batch}
		for _, sys := range []*dram.System{cpu, node} {
			l := g.LayoutFor(sys.Scheme.Geom, 1, n)
			for _, op := range []string{"GATHER", "REDUCE", "AVERAGE"} {
				bw := runOp(sys, op, g, l, indices, batch, reduction)
				row = append(row, bw)
				if sys == cpu {
					cpuAll = append(cpuAll, bw)
					if bw > cpuPeakSeen {
						cpuPeakSeen = bw
					}
				} else {
					nodeAll = append(nodeAll, bw)
					if bw > nodePeakSeen {
						nodePeakSeen = bw
					}
				}
			}
		}
		// Reorder: CPU triplet then TDIMM triplet already in place.
		t.AddRow(row...)
	}
	return Result{
		ID: "fig11", Title: "Tensor-op memory bandwidth, CPU vs TensorNode", Table: t,
		Notes: []string{
			fmt.Sprintf("Max bandwidth: TensorNode %.0f GB/s vs CPU %.0f GB/s (paper: 808 vs 192).", nodePeakSeen, cpuPeakSeen),
			fmt.Sprintf("Mean ratio TensorNode/CPU: %.1fx (paper: ~4x).", stats.Mean(nodeAll)/stats.Mean(cpuAll)),
		},
	}
}

// Fig12 reproduces Figure 12: memory throughput as DIMM count grows
// ({32,64,128}) with embeddings scaled 2-4x. The CPU system is pinned at 8
// channels no matter how many DIMMs it holds; the TensorNode's aggregate
// bandwidth scales with its TensorDIMM count.
func Fig12(s Scale) Result {
	t := Table{
		Title:   "Figure 12: memory throughput vs DIMM count (GB/s), embeddings scaled up",
		Columns: []string{"op", "DIMMs", "emb scale", "CPU", "TensorNode"},
	}
	dimmCounts := []int{32, 64, 128}
	scales := []int{2, 4}
	batches := 32
	switch s {
	case ScaleFull:
		batches = 64
	case ScaleSmoke:
		dimmCounts = []int{32}
		batches = 8
	}
	const reduction = 50
	rng := rand.New(rand.NewSource(12))
	var maxNode float64
	for _, op := range []string{"GATHER", "REDUCE", "AVERAGE"} {
		for i, dimms := range dimmCounts {
			embScale := scales[0]
			if i == len(dimmCounts)-1 {
				embScale = scales[1]
			}
			embBytes := 2048 * embScale
			g, err := trace.NewGenerator(embBytes, 100_000)
			if err != nil {
				panic(err)
			}
			// CPU: 8 channels regardless; ranks grow with DIMM count.
			cpu := dram.NewSystem(addrmap.CPUBaseline(8, dimms/8, 1<<16), dram.DDR43200())
			node := dram.NewSystem(addrmap.TensorDIMM(dimms, 1<<16), dram.DDR43200())
			n := batches * reduction
			indices := make([]int, n)
			for j := range indices {
				indices[j] = rng.Intn(g.TableRows)
			}
			cbw := runOp(cpu, op, g, g.LayoutFor(cpu.Scheme.Geom, 1, n), indices, batches, reduction)
			nbw := runOp(node, op, g, g.LayoutFor(node.Scheme.Geom, 1, n), indices, batches, reduction)
			if nbw > maxNode {
				maxNode = nbw
			}
			t.AddRow(op, dimms, fmt.Sprintf("%dx", embScale), cbw, nbw)
		}
	}
	return Result{
		ID: "fig12", Title: "Bandwidth scaling with DIMM count", Table: t,
		Notes: []string{
			"CPU throughput saturates near 200 GB/s regardless of DIMM count; TensorNode scales with TensorDIMMs.",
			fmt.Sprintf("Max TensorNode throughput at 128 DIMMs: %.1f TB/s (paper: up to 3.1 TB/s).", maxNode/1000),
		},
	}
}

// Fig13 reproduces Figure 13: the latency breakdown of one batch-64
// inference across the five design points, normalized per network to its
// slowest design.
func Fig13(p core.Platform) Result {
	t := Table{
		Title:   "Figure 13: latency breakdown at batch 64 (fractions of the slowest design per network)",
		Columns: []string{"network", "design", "lookup", "memcpy", "DNN", "else", "total(us)", "normalized"},
	}
	for _, cfg := range recsys.All() {
		var slowest float64
		breakdowns := core.SimulateAll(cfg, recsys.DefaultBatch, p)
		for _, b := range breakdowns {
			if b.TotalS() > slowest {
				slowest = b.TotalS()
			}
		}
		for _, b := range breakdowns {
			t.AddRow(cfg.Name, b.Design.String(),
				b.LookupS/slowest, b.TransferS/slowest, b.DNNS/slowest, b.OtherS/slowest,
				b.TotalS()*1e6, b.TotalS()/slowest)
		}
	}
	return Result{ID: "fig13", Title: "Latency breakdown per design point", Table: t}
}

// Fig14 reproduces Figure 14: performance of the five design points
// normalized to GPU-only, across batches {8, 64, 128}, plus the geomean.
func Fig14(p core.Platform) Result {
	t := Table{
		Title:   "Figure 14: performance normalized to the GPU-only oracle",
		Columns: []string{"network", "batch", "CPU-only", "CPU-GPU", "PMEM", "TDIMM", "GPU-only"},
	}
	per := map[core.DesignPoint][]float64{}
	for _, cfg := range recsys.All() {
		for _, b := range []int{8, 64, 128} {
			row := []any{cfg.Name, b}
			for _, dp := range core.DesignPoints() {
				norm := core.NormalizedPerf(dp, cfg, b, p)
				per[dp] = append(per[dp], norm)
				row = append(row, norm)
			}
			t.AddRow(row...)
		}
	}
	row := []any{"geomean", "-"}
	for _, dp := range core.DesignPoints() {
		row = append(row, stats.Geomean(per[dp]))
	}
	t.AddRow(row...)
	return Result{
		ID: "fig14", Title: "Normalized performance of the five designs", Table: t,
		Notes: []string{fmt.Sprintf("TDIMM geomean: %.2f of oracle (paper: 0.84 average, >= 0.75 minimum).",
			stats.Geomean(per[core.TDIMM]))},
	}
}

// Fig15 reproduces Figure 15: TDIMM speedup over CPU-only and CPU-GPU as the
// embedding dimension scales 1-8x, averaged over the four networks.
func Fig15(p core.Platform) Result {
	t := Table{
		Title:   "Figure 15: TDIMM speedup with larger embeddings (geomean over networks)",
		Columns: []string{"emb scale", "batch", "vs CPU-only", "vs CPU-GPU"},
	}
	for _, scale := range []int{1, 2, 4, 8} {
		for _, b := range []int{8, 64, 128} {
			var sc, sh []float64
			for _, cfg := range recsys.All() {
				c := cfg.WithEmbDim(cfg.EmbDim * scale)
				sc = append(sc, core.Speedup(core.TDIMM, core.CPUOnly, c, b, p))
				sh = append(sh, core.Speedup(core.TDIMM, core.CPUGPU, c, b, p))
			}
			t.AddRow(fmt.Sprintf("%dx", scale), b, stats.Geomean(sc), stats.Geomean(sh))
		}
	}
	return Result{
		ID: "fig15", Title: "TDIMM speedup with larger embeddings", Table: t,
		Notes: []string{"Paper: 6.2-15.0x over CPU-only and 8.9-17.6x over CPU-GPU (max 35x)."},
	}
}

// Fig16 reproduces Figure 16: PMEM and TDIMM performance as the node-GPU
// link bandwidth drops from 150 to 25 GB/s, for embeddings scaled 1-8x,
// normalized to the 150 GB/s configuration.
func Fig16(p core.Platform) Result {
	t := Table{
		Title:   "Figure 16: sensitivity to node-GPU link bandwidth (normalized to 150 GB/s)",
		Columns: []string{"design", "emb scale", "25 GB/s", "50 GB/s", "150 GB/s"},
	}
	for _, dp := range []core.DesignPoint{core.PMEM, core.TDIMM} {
		for _, scale := range []int{1, 2, 4, 8} {
			row := []any{dp.String(), fmt.Sprintf("%dx", scale)}
			var base []float64
			for _, cfg := range recsys.All() {
				c := cfg.WithEmbDim(cfg.EmbDim * scale)
				base = append(base, core.Simulate(dp, c, recsys.DefaultBatch, p.WithNodeLinkGBs(150)).TotalS())
			}
			for _, gbs := range []float64{25, 50, 150} {
				var rel []float64
				for i, cfg := range recsys.All() {
					c := cfg.WithEmbDim(cfg.EmbDim * scale)
					tt := core.Simulate(dp, c, recsys.DefaultBatch, p.WithNodeLinkGBs(gbs)).TotalS()
					rel = append(rel, base[i]/tt)
				}
				row = append(row, stats.Geomean(rel))
			}
			t.AddRow(row...)
		}
	}
	return Result{
		ID: "fig16", Title: "Link-bandwidth sensitivity, PMEM vs TDIMM", Table: t,
		Notes: []string{"Paper: PMEM loses up to 68% at 25 GB/s; TDIMM at most ~15% (average 10%)."},
	}
}

// Tab3 reproduces Table 3: FPGA utilization of one NMP core on the VCU1525.
func Tab3() Result {
	t := Table{
		Title:   "Table 3: NMP core FPGA utilization on Xilinx VCU1525 (XCVU9P)",
		Columns: []string{"component", "LUT [%]", "FF [%]", "DSP [%]", "BRAM [%]"},
	}
	rows := power.NMPCoreBreakdown()
	for _, name := range []string{"SRAM queues", "FPU", "ALU"} {
		u := rows[name]
		t.AddRow(name,
			fmt.Sprintf("%.2f", u.LUTPct), fmt.Sprintf("%.2f", u.FFPct),
			fmt.Sprintf("%.2f", u.DSPPct), fmt.Sprintf("%.2f", u.BRAMPct))
	}
	total := power.NMPCoreTotal()
	t.AddRow("total",
		fmt.Sprintf("%.2f", total.LUTPct), fmt.Sprintf("%.2f", total.FFPct),
		fmt.Sprintf("%.2f", total.DSPPct), fmt.Sprintf("%.2f", total.BRAMPct))
	return Result{
		ID: "tab3", Title: "NMP core FPGA utilization", Table: t,
		Notes: []string{"Paper: SRAM queues 0.01% BRAM; FPU 0.19% LUT / 0.20% DSP; ALU 0.09% LUT / 0.01% DSP."},
	}
}

// PowerBudget reproduces the Section 6.5 power analysis: per-DIMM and
// whole-TensorNode power from the Micron-calculator-style model.
func PowerBudget() Result {
	t := Table{
		Title:   "Section 6.5: TensorNode power budget",
		Columns: []string{"component", "watts"},
	}
	perDIMM := power.LRDIMM128GB().DIMMWatts(0.45, 0.25)
	t.AddRow("128 GB LR-DIMM (active)", perDIMM)
	t.AddRow("NMP core", power.NMPCoreWatts())
	t.AddRow("TensorNode (32 TensorDIMMs)", power.TensorNodeWatts(32, 0.45, 0.25))
	return Result{
		ID: "power", Title: "TensorNode power budget", Table: t,
		Notes: []string{"Paper: 13 W per 128 GB LR-DIMM, 416 W per 32-DIMM TensorNode (350-700 W OCP envelope)."},
	}
}

// ExtScatter is this reproduction's extension experiment: the effective
// DRAM bandwidth of near-memory SCATTER_ADD gradient updates (the training
// direction the paper leaves to future work), CPU organization vs
// TensorNode, mirroring the Figure 11 methodology.
func ExtScatter(s Scale) Result {
	const embBytes = 2048
	g, err := trace.NewGenerator(embBytes, 200_000)
	if err != nil {
		panic(err)
	}
	cpu, node := dramSystems(32)
	t := Table{
		Title:   "Extension: SCATTER_ADD update bandwidth (GB/s), CPU vs TensorNode",
		Columns: []string{"updates", "CPU", "TensorNode", "ratio"},
	}
	rng := rand.New(rand.NewSource(13))
	sizes := []int{256, 1024, 4096}
	switch s {
	case ScaleFull:
		sizes = []int{256, 1024, 4096, 16384}
	case ScaleSmoke:
		sizes = []int{256}
	}
	var lastRatio float64
	for _, n := range sizes {
		indices := make([]int, n)
		for i := range indices {
			indices[i] = rng.Intn(g.TableRows)
		}
		cl := g.LayoutFor(cpu.Scheme.Geom, 1, n)
		nl := g.LayoutFor(node.Scheme.Geom, 1, n)
		cres := cpu.Run(g.ScatterAdd(cl, indices))
		nres := node.Run(g.ScatterAdd(nl, indices))
		cbw := cres.BandwidthGBs(cpu.Timing)
		nbw := nres.BandwidthGBs(node.Timing)
		lastRatio = nbw / cbw
		t.AddRow(n, cbw, nbw, lastRatio)
	}
	return Result{
		ID: "extscatter", Title: "SCATTER_ADD update bandwidth (extension)", Table: t,
		Notes: []string{
			"Extension beyond the paper: near-memory gradient accumulation for embedding training.",
			fmt.Sprintf("TensorNode sustains %.1fx the CPU organization's update bandwidth at the largest size.", lastRatio),
		},
	}
}

// ExtOnline is the online-update extension experiment: a sharded cluster
// with hot-row caches serves Zipf-skewed traffic while an increasing
// fraction of requests are SCATTER_ADD update batches. The sweep reports
// sustained request throughput, the hot-row cache hit rate that survives
// the updates' invalidations (the RecNMP locality question under writes),
// and the invalidation count — TRiM-style update bandwidth treated as a
// first-class serving metric.
func ExtOnline(s Scale) Result {
	mc := recsys.Config{
		Name: "extonline", Tables: 2, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 2000, Hidden: []int{8},
		Op: isa.RAdd,
	}
	fracs := []float64{0, 0.1, 0.25, 0.5}
	reqs := 400
	switch s {
	case ScaleFull:
		fracs = []float64{0, 0.1, 0.25, 0.5, 0.75}
		reqs = 2000
	case ScaleSmoke:
		fracs = []float64{0, 0.5}
		reqs = 80
	}
	const batch = 4
	t := Table{
		Title:   "Extension: online updates — update fraction vs throughput and cache hit rate",
		Columns: []string{"update frac", "req/s", "hit rate [%]", "invalidations", "updated rows"},
	}
	for _, frac := range fracs {
		cl, err := cluster.New(mustBuild(mc, 42), cluster.Config{
			Nodes: 2, DIMMsPerNode: 4, MaxBatch: 16, CacheBytes: 64 << 10,
		})
		if err != nil {
			panic(err)
		}
		reg := telemetry.NewRegistry()
		cl.Instrument(reg)
		gen, err := workload.NewZipfGenerator(mc.TableRows, 0.9, 7)
		if err != nil {
			panic(err)
		}
		// Warm the hot-row caches with read-only traffic first (a serving
		// deployment measures against warm caches, not cold ones): the
		// sweep's hit rates then reflect steady state, and the update rows
		// deterministically intersect resident rows, so the invalidation
		// column measures coherence work rather than cold-cache luck.
		warmGen, err := workload.NewZipfGenerator(mc.TableRows, 0.9, 13)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := cl.EmbedInto(nil, warmGen.Batch(mc.Tables, batch, mc.Reduction), batch); err != nil {
				panic(err)
			}
		}
		rng := rand.New(rand.NewSource(11))
		start := time.Now()
		// Submit in small concurrent bursts so the shard micro-batchers
		// coalesce, as a serving front-end would.
		var wg sync.WaitGroup
		for i := 0; i < reqs; i++ {
			update := rng.Float64() < frac
			var rows [][]int
			var ups []runtime.TableUpdate
			if update {
				target := rng.Intn(mc.Tables)
				urows := gen.Indices(batch)
				g := tensor.New(len(urows), mc.EmbDim)
				for k := range g.Data() {
					g.Data()[k] = rng.Float32() - 0.5
				}
				ups = []runtime.TableUpdate{{Table: target, Rows: urows, Grads: g}}
			} else {
				rows = gen.Batch(mc.Tables, batch, mc.Reduction)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if update {
					if err := cl.ApplyUpdates(ups); err != nil {
						panic(err)
					}
					return
				}
				if _, err := cl.EmbedInto(nil, rows, batch); err != nil {
					panic(err)
				}
			}()
			if (i+1)%8 == 0 {
				wg.Wait()
			}
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		snap := reg.Snapshot()
		cl.Close()
		rowsUpdated, _ := snap.Counter("tensordimm_cluster_update_rows_total")
		t.AddRow(fmt.Sprintf("%.2f", frac),
			fmt.Sprintf("%.0f", float64(reqs)/elapsed),
			fmt.Sprintf("%.1f", 100*stats.HitRate(shardSum(snap, "tensordimm_cluster_cache_hits_total"),
				shardSum(snap, "tensordimm_cluster_cache_misses_total"))),
			shardSum(snap, "tensordimm_cluster_cache_invalidations_total"), rowsUpdated)
	}
	return Result{
		ID: "extonline", Title: "Online-update throughput and cache coherence (extension)", Table: t,
		Notes: []string{
			"Extension beyond the paper: cluster-wide SCATTER_ADD updates with hot-row cache invalidation.",
			"Hit rate column shows how much RecNMP-style locality survives as the write fraction grows.",
		},
	}
}

// shardSum adds up a counter over every shard label it carries in snap.
func shardSum(snap *telemetry.Snapshot, name string) uint64 {
	var n uint64
	for _, c := range snap.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// mustBuild materializes a model or panics (experiment drivers have no
// error channel; a build failure here is a programming error).
func mustBuild(mc recsys.Config, seed int64) *recsys.Model {
	m, err := recsys.Build(mc, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// experiments is every experiment in the paper's order, with the extension
// experiments last: the one list All, ByID and IDs read.
var experiments = []struct {
	id  string
	run func(core.Platform, Scale) Result
}{
	{"fig3", func(core.Platform, Scale) Result { return Fig3() }},
	{"fig4", func(p core.Platform, _ Scale) Result { return Fig4(p) }},
	{"tab1", func(core.Platform, Scale) Result { return Tab1() }},
	{"tab2", func(core.Platform, Scale) Result { return Tab2() }},
	{"fig11", func(_ core.Platform, s Scale) Result { return Fig11(s) }},
	{"fig12", func(_ core.Platform, s Scale) Result { return Fig12(s) }},
	{"fig13", func(p core.Platform, _ Scale) Result { return Fig13(p) }},
	{"fig14", func(p core.Platform, _ Scale) Result { return Fig14(p) }},
	{"fig15", func(p core.Platform, _ Scale) Result { return Fig15(p) }},
	{"fig16", func(p core.Platform, _ Scale) Result { return Fig16(p) }},
	{"tab3", func(core.Platform, Scale) Result { return Tab3() }},
	{"power", func(core.Platform, Scale) Result { return PowerBudget() }},
	{"extscatter", func(_ core.Platform, s Scale) Result { return ExtScatter(s) }},
	{"extonline", func(_ core.Platform, s Scale) Result { return ExtOnline(s) }},
}

// All runs every experiment at the given scale, in the paper's order, plus
// the extension experiments.
func All(p core.Platform, s Scale) []Result {
	rs := make([]Result, len(experiments))
	for i, e := range experiments {
		rs[i] = e.run(p, s)
	}
	return rs
}

// ByID returns the experiment with the given ID, running it on demand.
func ByID(id string, p core.Platform, s Scale) (Result, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(p, s), nil
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown id %q (want %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists all experiment identifiers in the paper's order, with the
// extension experiments last.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
