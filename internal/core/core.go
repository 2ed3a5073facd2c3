// Package core is the end-to-end performance engine of the reproduction: it
// evaluates the five recommender-system design points of Section 6 —
// CPU-only, hybrid CPU-GPU, PMEM (pooled memory without NMP), TDIMM
// (TensorNode with TensorDIMMs), and the unbuildable oracular GPU-only —
// and returns the per-phase latency breakdowns of Figure 13.
//
// The model follows the paper's own decomposition (Figure 5): an inference
// is an embedding gather, a tensor reduction, a transfer of embeddings to
// GPU memory, and the DNN computation, plus fixed framework overhead. Each
// phase is costed against the platform's bandwidths and compute throughputs
// (internal/device, internal/interconnect), with the TensorNode's effective
// per-operation bandwidths calibrated against the cycle-level DRAM
// simulation of internal/dram (see CalibrateFromDRAM and the calibration
// test).
package core

import (
	"fmt"

	"tensordimm/internal/device"
	"tensordimm/internal/interconnect"
	"tensordimm/internal/recsys"
)

// DesignPoint enumerates the five system designs of Section 6.
type DesignPoint int

// The design points, in the paper's order.
const (
	CPUOnly DesignPoint = iota // embeddings + DNN on the host CPU
	CPUGPU                     // embeddings on CPU, copied over PCIe, DNN on GPU
	PMEM                       // pooled conventional DIMMs in the GPU fabric, no NMP
	TDIMM                      // TensorNode with TensorDIMM NMP (the proposal)
	GPUOnly                    // oracle: infinite GPU memory
)

// DesignPoints lists all five in order.
func DesignPoints() []DesignPoint {
	return []DesignPoint{CPUOnly, CPUGPU, PMEM, TDIMM, GPUOnly}
}

// String implements fmt.Stringer.
func (dp DesignPoint) String() string {
	switch dp {
	case CPUOnly:
		return "CPU-only"
	case CPUGPU:
		return "CPU-GPU"
	case PMEM:
		return "PMEM"
	case TDIMM:
		return "TDIMM"
	case GPUOnly:
		return "GPU-only"
	default:
		return fmt.Sprintf("design(%d)", int(dp))
	}
}

// Platform aggregates every hardware parameter of the evaluation testbed
// (Table 1 and Section 5).
type Platform struct {
	CPU device.Compute
	GPU device.Compute

	// PCIe is the host-GPU link of the conventional hybrid design.
	PCIe interconnect.Link
	// NodeLink is the TensorNode-GPU link (NVLink through NVSwitch);
	// Figure 16 sweeps its bandwidth.
	NodeLink interconnect.Link

	// NodeDIMMs is the number of TensorDIMMs in the node (Table 1: 32).
	NodeDIMMs int
	// DIMMBandwidthGBs is per-TensorDIMM local bandwidth (PC4-25600: 25.6).
	DIMMBandwidthGBs float64
	// NodeGatherEff is the node's effective GATHER bandwidth per *gathered*
	// byte, as a fraction of aggregate peak; it folds in the index-list
	// reads and the gathered-tensor writeback of Figure 9(a). Two
	// calibrations exist (see EXPERIMENTS.md): the paper's proof-of-concept
	// emulation methodology (GPU-class streaming gathers, ~0.45, the
	// default) and this reproduction's cycle-level DRAM simulation of the
	// per-DIMM datapath (~0.25: 0.50 bus utilization over 2x traffic,
	// tFAW-bound single-rank random reads). DRAMSimNodeGatherEff selects
	// the latter for ablations.
	NodeGatherEff float64
	// NodeStreamEff is the fraction of aggregate peak achieved by the
	// REDUCE/AVERAGE streaming passes (DRAM-sim measured, Figure 11).
	NodeStreamEff float64

	// PMEMPeakGBs is the internal bandwidth of the conventional pooled
	// memory (8 channels of DDR4, like the host: 204.8 GB/s) and
	// PMEMGatherEff its gather efficiency over CC-NUMA remote reads.
	PMEMPeakGBs   float64
	PMEMGatherEff float64

	// FrameworkOverheadS is the fixed per-inference overhead (framework
	// dispatch, synchronization) — the "Else" slice of Figure 13.
	FrameworkOverheadS float64
}

// DefaultPlatform returns the paper's evaluation platform: a DGX-class host,
// one V100 as the compute GPU, and a 32-TensorDIMM TensorNode behind 150
// GB/s of NVLink. The node efficiencies are the Figure-11 measurements of
// this reproduction's DRAM simulator (see TestCalibration in this package).
func DefaultPlatform() Platform {
	return Platform{
		CPU:                device.XeonHost(),
		GPU:                device.V100(),
		PCIe:               interconnect.PCIe3x16(),
		NodeLink:           interconnect.NVLink2(6),
		NodeDIMMs:          32,
		DIMMBandwidthGBs:   25.6,
		NodeGatherEff:      0.45,
		NodeStreamEff:      0.84,
		PMEMPeakGBs:        204.8,
		PMEMGatherEff:      0.60,
		FrameworkOverheadS: 20e-6,
	}
}

// DRAMSimNodeGatherEff is the per-gathered-byte GATHER efficiency measured
// by this reproduction's cycle-level DRAM simulator for the per-DIMM NMP
// datapath (ablation alternative to the emulation-calibrated default; see
// the NodeGatherEff field).
const DRAMSimNodeGatherEff = 0.25

// NodePeakGBs returns the TensorNode aggregate bandwidth (Table 1: 819.2).
func (p Platform) NodePeakGBs() float64 {
	return float64(p.NodeDIMMs) * p.DIMMBandwidthGBs
}

// WithDRAMSimGather returns a copy using the DRAM-simulation-calibrated
// gather efficiency instead of the emulation-calibrated default.
func (p Platform) WithDRAMSimGather() Platform {
	p.NodeGatherEff = DRAMSimNodeGatherEff
	return p
}

// WithNodeDIMMs returns a copy provisioned with n TensorDIMMs (the
// bandwidth-scaling studies of Figures 12 and 15).
func (p Platform) WithNodeDIMMs(n int) Platform {
	p.NodeDIMMs = n
	return p
}

// WithNodeLinkGBs returns a copy with the node-GPU link bandwidth replaced
// (the Figure 16 sensitivity sweep).
func (p Platform) WithNodeLinkGBs(gbs float64) Platform {
	p.NodeLink = p.NodeLink.WithBandwidth(gbs)
	return p
}

// Breakdown is the per-phase latency decomposition of one inference,
// matching Figure 13's stacks.
type Breakdown struct {
	Design DesignPoint
	// LookupS is the embedding gather + near/local reduction time.
	LookupS float64
	// TransferS is the embedding copy time (cudaMemcpy over PCIe or NVLink).
	TransferS float64
	// DNNS is the dense DNN computation time.
	DNNS float64
	// OtherS is fixed framework overhead.
	OtherS float64
}

// TotalS returns the end-to-end inference latency.
func (b Breakdown) TotalS() float64 {
	return b.LookupS + b.TransferS + b.DNNS + b.OtherS
}

// Simulate costs one inference of the model at the given batch size under
// the chosen design point.
func Simulate(dp DesignPoint, cfg recsys.Config, batch int, p Platform) Breakdown {
	g := cfg.GatheredBytes(batch) // bytes read from the lookup tables
	r := cfg.ReducedBytes(batch)  // bytes of the pooled embedding tensor
	dims := cfg.MLPDims()

	b := Breakdown{Design: dp, OtherS: p.FrameworkOverheadS}
	switch dp {
	case CPUOnly:
		b.LookupS = p.CPU.GatherSeconds(g) + p.CPU.StreamSeconds(g+r)
		b.DNNS = p.CPU.MLPSeconds(batch, dims)

	case CPUGPU:
		// Gather on the CPU, copy the *un-reduced* embeddings over PCIe,
		// reduce on the GPU (Figure 5(a)).
		b.LookupS = p.CPU.GatherSeconds(g)
		b.TransferS = p.PCIe.TransferSeconds(g)
		b.LookupS += p.GPU.StreamSeconds(g + r)
		b.DNNS = p.GPU.MLPSeconds(batch, dims)

	case PMEM:
		// Pooled conventional memory inside the GPU fabric: the GPU pulls
		// raw embeddings through the link (bounded by the pool's internal
		// gather bandwidth and the link), then reduces locally.
		pullGBs := p.PMEMPeakGBs * p.PMEMGatherEff
		if p.NodeLink.BandwidthGBs < pullGBs {
			pullGBs = p.NodeLink.BandwidthGBs
		}
		b.LookupS = float64(g)/(pullGBs*1e9) + p.NodeLink.LatencyS
		b.LookupS += p.GPU.StreamSeconds(g + r)
		b.DNNS = p.GPU.MLPSeconds(batch, dims)

	case TDIMM:
		// Near-memory gather (NodeGatherEff is per gathered byte and folds
		// in the writeback traffic of Figure 9(a)) and near-memory
		// reduction (reads g, writes r), then only the reduced tensor
		// crosses NVLink (Figure 5(b)).
		node := p.NodePeakGBs()
		b.LookupS = float64(g) / (node * p.NodeGatherEff * 1e9)
		if cfg.Reduction > 1 {
			b.LookupS += float64(g+r) / (node * p.NodeStreamEff * 1e9)
		}
		b.TransferS = p.NodeLink.TransferSeconds(r)
		b.DNNS = p.GPU.MLPSeconds(batch, dims)

	case GPUOnly:
		b.LookupS = p.GPU.GatherSeconds(g) + p.GPU.StreamSeconds(g+r)
		b.DNNS = p.GPU.MLPSeconds(batch, dims)
	}
	return b
}

// SimulateAll returns breakdowns for all five design points.
func SimulateAll(cfg recsys.Config, batch int, p Platform) []Breakdown {
	out := make([]Breakdown, 0, 5)
	for _, dp := range DesignPoints() {
		out = append(out, Simulate(dp, cfg, batch, p))
	}
	return out
}

// Speedup returns how much faster design a is than design b for the given
// workload (paper convention: CPU-only/TDIMM = "TDIMM speedup over CPU").
func Speedup(a, b DesignPoint, cfg recsys.Config, batch int, p Platform) float64 {
	ta := Simulate(a, cfg, batch, p).TotalS()
	tb := Simulate(b, cfg, batch, p).TotalS()
	return tb / ta
}

// NormalizedPerf returns performance normalized to the GPU-only oracle
// (Figure 14's y-axis): T(GPUOnly)/T(dp).
func NormalizedPerf(dp DesignPoint, cfg recsys.Config, batch int, p Platform) float64 {
	return Speedup(dp, GPUOnly, cfg, batch, p)
}
