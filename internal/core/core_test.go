package core

import (
	"math"
	"testing"

	"tensordimm/internal/recsys"
)

// geomeanNorm returns the geometric-mean normalized performance of a design
// point across the four benchmarks at the given batch.
func geomeanNorm(dp DesignPoint, batch int, p Platform) float64 {
	var acc float64
	for _, cfg := range recsys.All() {
		acc += math.Log(NormalizedPerf(dp, cfg, batch, p))
	}
	return math.Exp(acc / 4)
}

// geomeanSpeedup returns TDIMM's geomean speedup over `base` across the four
// benchmarks and the paper's batch set {8, 64, 128}.
func geomeanSpeedup(base DesignPoint, p Platform, embScale int) float64 {
	var acc float64
	var n int
	for _, cfg := range recsys.All() {
		c := cfg.WithEmbDim(cfg.EmbDim * embScale)
		for _, b := range []int{8, 64, 128} {
			acc += math.Log(Speedup(TDIMM, base, c, b, p))
			n++
		}
	}
	return math.Exp(acc / float64(n))
}

func TestDesignPointStrings(t *testing.T) {
	want := []string{"CPU-only", "CPU-GPU", "PMEM", "TDIMM", "GPU-only"}
	for i, dp := range DesignPoints() {
		if dp.String() != want[i] {
			t.Fatalf("DesignPoint %d = %q, want %q", i, dp.String(), want[i])
		}
	}
	if DesignPoint(99).String() == "" {
		t.Fatal("unknown design point must still print")
	}
}

func TestTable1NodeConfig(t *testing.T) {
	p := DefaultPlatform()
	if p.NodeDIMMs != 32 || p.DIMMBandwidthGBs != 25.6 {
		t.Fatalf("default node: %d DIMMs x %.1f GB/s, want Table 1's 32 x 25.6", p.NodeDIMMs, p.DIMMBandwidthGBs)
	}
	if got := p.NodePeakGBs(); math.Abs(got-819.2) > 0.01 {
		t.Fatalf("node peak = %.1f, want 819.2 GB/s", got)
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{LookupS: 1, TransferS: 2, DNNS: 3, OtherS: 4}
	if b.TotalS() != 10 {
		t.Fatalf("TotalS = %v", b.TotalS())
	}
}

func TestSimulateAllCoversDesigns(t *testing.T) {
	res := SimulateAll(recsys.NCF(), 64, DefaultPlatform())
	if len(res) != 5 {
		t.Fatalf("SimulateAll returned %d breakdowns", len(res))
	}
	for i, b := range res {
		if b.Design != DesignPoints()[i] {
			t.Fatalf("breakdown %d for %v", i, b.Design)
		}
		if b.TotalS() <= 0 {
			t.Fatalf("%v: non-positive latency", b.Design)
		}
	}
}

func TestPhaseStructurePerDesign(t *testing.T) {
	p := DefaultPlatform()
	cfg := recsys.YouTube()
	for _, c := range []struct {
		dp          DesignPoint
		hasTransfer bool
	}{
		{CPUOnly, false}, {CPUGPU, true}, {TDIMM, true}, {GPUOnly, false},
	} {
		b := Simulate(c.dp, cfg, 64, p)
		if c.hasTransfer && b.TransferS == 0 {
			t.Errorf("%v: expected a transfer phase", c.dp)
		}
		if !c.hasTransfer && b.TransferS != 0 {
			t.Errorf("%v: unexpected transfer phase %v", c.dp, b.TransferS)
		}
		if b.LookupS <= 0 || b.DNNS <= 0 {
			t.Errorf("%v: empty lookup/DNN phase", c.dp)
		}
	}
}

func TestTDIMMTransfersOnlyReducedTensor(t *testing.T) {
	// The core claim of Figure 5: TDIMM moves ~1/N of what CPU-GPU moves.
	p := DefaultPlatform()
	cfg := recsys.YouTube() // 50-way reduction
	td := Simulate(TDIMM, cfg, 64, p)
	hy := Simulate(CPUGPU, cfg, 64, p)
	ratio := hy.TransferS / td.TransferS
	// PCIe is ~9.4x slower and moves 50x the bytes; with fixed latencies
	// the ratio is large but below 9.4*50.
	if ratio < 50 {
		t.Fatalf("transfer ratio CPU-GPU/TDIMM = %.1f, want > 50", ratio)
	}
}

// --- Calibration tests: the paper's headline results (Section 6) ---

func TestFig4BaselinesSlowdown(t *testing.T) {
	// Section 3.2: CPU-only and CPU-GPU see an average 7.3-20.9x slowdown
	// vs the GPU-only oracle (batch-64/128 region of Figure 4). Accept a
	// generous band around it.
	p := DefaultPlatform()
	for _, batch := range []int{64, 128} {
		for _, dp := range []DesignPoint{CPUOnly, CPUGPU} {
			slowdown := 1 / geomeanNorm(dp, batch, p)
			if slowdown < 5 || slowdown > 30 {
				t.Errorf("batch %d %v slowdown = %.1fx, want in [5,30] (paper 7.3-20.9)", batch, dp, slowdown)
			}
		}
	}
}

func TestFig14TDIMMNearOracle(t *testing.T) {
	// Section 6.2: TDIMM reaches an average 84% (no less than 75%) of the
	// unbuildable GPU-only oracle.
	p := DefaultPlatform()
	var avg float64
	for _, batch := range []int{8, 64, 128} {
		avg += geomeanNorm(TDIMM, batch, p)
	}
	avg /= 3
	if avg < 0.78 || avg > 0.95 {
		t.Fatalf("TDIMM average normalized perf = %.3f, want ~0.84", avg)
	}
	for _, batch := range []int{8, 64, 128} {
		for _, cfg := range recsys.All() {
			if norm := NormalizedPerf(TDIMM, cfg, batch, p); norm < 0.70 {
				t.Errorf("%s batch %d: TDIMM = %.2f of oracle, want >= 0.70 (paper: >= 0.75)", cfg.Name, batch, norm)
			}
		}
	}
}

func TestHeadlineSpeedups(t *testing.T) {
	// Abstract/Section 6: 6.2x (default) to 15.0x (8x embeddings) over
	// CPU-only; 8.9x to 17.6x over CPU-GPU.
	p := DefaultPlatform()
	sCPU := geomeanSpeedup(CPUOnly, p, 1)
	if sCPU < 5 || sCPU > 12 {
		t.Fatalf("TDIMM vs CPU-only = %.1fx, want ~6-10x (paper 6.2)", sCPU)
	}
	sHybrid := geomeanSpeedup(CPUGPU, p, 1)
	if sHybrid < 6 || sHybrid > 14 {
		t.Fatalf("TDIMM vs CPU-GPU = %.1fx, want ~8-12x (paper 8.9)", sHybrid)
	}
	// Larger embeddings widen the gap (Figure 15).
	s8CPU := geomeanSpeedup(CPUOnly, p, 8)
	if s8CPU <= sCPU {
		t.Fatalf("8x embeddings speedup %.1fx must exceed default %.1fx", s8CPU, sCPU)
	}
	if s8CPU < 12 || s8CPU > 25 {
		t.Fatalf("TDIMM vs CPU-only at 8x embeddings = %.1fx, want ~15x", s8CPU)
	}
}

func TestFig16LinkSensitivity(t *testing.T) {
	// Section 6.4: dropping the node link from 150 to 25 GB/s costs PMEM up
	// to 68% of its performance but TDIMM at most ~15% (avg 10%).
	p := DefaultPlatform()
	rel := func(dp DesignPoint) float64 {
		var acc float64
		for _, cfg := range recsys.All() {
			t150 := Simulate(dp, cfg, 64, p.WithNodeLinkGBs(150)).TotalS()
			t25 := Simulate(dp, cfg, 64, p.WithNodeLinkGBs(25)).TotalS()
			acc += math.Log(t150 / t25)
		}
		return math.Exp(acc / 4)
	}
	pmem := rel(PMEM)
	tdimm := rel(TDIMM)
	if pmem > 0.55 {
		t.Fatalf("PMEM at 25 GB/s retains %.2f, want heavy loss (paper: down to 0.32)", pmem)
	}
	if tdimm < 0.80 {
		t.Fatalf("TDIMM at 25 GB/s retains %.2f, want >= 0.80 (paper: >= 0.85)", tdimm)
	}
	if tdimm <= pmem {
		t.Fatal("TDIMM must be more robust to link bandwidth than PMEM")
	}
}

func TestPMEMBetweenHybridAndTDIMM(t *testing.T) {
	// Figure 14: PMEM (pooled memory without NMP) beats the hybrid design
	// but loses to TDIMM.
	p := DefaultPlatform()
	for _, cfg := range recsys.All() {
		hy := Simulate(CPUGPU, cfg, 64, p).TotalS()
		pm := Simulate(PMEM, cfg, 64, p).TotalS()
		td := Simulate(TDIMM, cfg, 64, p).TotalS()
		if !(td <= pm && pm <= hy) {
			t.Errorf("%s: want TDIMM (%.0fus) <= PMEM (%.0fus) <= CPU-GPU (%.0fus)",
				cfg.Name, td*1e6, pm*1e6, hy*1e6)
		}
	}
}

func TestDRAMSimGatherAblation(t *testing.T) {
	// Under the pessimistic DRAM-sim gather calibration TDIMM slows down
	// but must still beat both CPU baselines by a wide margin.
	p := DefaultPlatform().WithDRAMSimGather()
	if p.NodeGatherEff != DRAMSimNodeGatherEff {
		t.Fatal("WithDRAMSimGather did not apply")
	}
	for _, cfg := range recsys.All() {
		if s := Speedup(TDIMM, CPUOnly, cfg, 64, p); s < 3 {
			t.Errorf("%s: DRAM-sim-calibrated TDIMM speedup %.1fx, want >= 3x", cfg.Name, s)
		}
	}
	def := DefaultPlatform()
	if Simulate(TDIMM, recsys.YouTube(), 64, p).TotalS() <= Simulate(TDIMM, recsys.YouTube(), 64, def).TotalS() {
		t.Fatal("pessimistic calibration must be slower")
	}
}

func TestWithNodeDIMMsScalesBandwidth(t *testing.T) {
	p := DefaultPlatform().WithNodeDIMMs(128)
	if math.Abs(p.NodePeakGBs()-3276.8) > 0.01 {
		t.Fatalf("128 DIMMs peak = %.1f, want 3276.8 GB/s (Figure 12)", p.NodePeakGBs())
	}
	// More DIMMs -> faster TDIMM lookups on large embeddings.
	cfg := recsys.YouTube().WithEmbDim(4096)
	t32 := Simulate(TDIMM, cfg, 64, DefaultPlatform()).LookupS
	t128 := Simulate(TDIMM, cfg, 64, p).LookupS
	if t128 >= t32 {
		t.Fatal("provisioning more TensorDIMMs must speed up lookups")
	}
}

func TestBatchScalesLatency(t *testing.T) {
	p := DefaultPlatform()
	for _, dp := range DesignPoints() {
		t8 := Simulate(dp, recsys.Facebook(), 8, p).TotalS()
		t128 := Simulate(dp, recsys.Facebook(), 128, p).TotalS()
		if t128 <= t8 {
			t.Errorf("%v: batch 128 (%.0fus) not slower than batch 8 (%.0fus)", dp, t128*1e6, t8*1e6)
		}
	}
}
