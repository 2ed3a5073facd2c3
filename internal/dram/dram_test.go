package dram

import (
	"math/rand"
	"testing"

	"tensordimm/internal/addrmap"
)

func testScheme(channels int) *addrmap.Scheme {
	return addrmap.CPUBaseline(channels, 2, 1<<14)
}

// reqCount trims request streams in -short mode: the structural assertions
// below hold at a quarter of the full stream length, and the suite drops
// from ~2 s to well under one.
func reqCount(t *testing.T, full int) int {
	t.Helper()
	if testing.Short() {
		return full / 4
	}
	return full
}

func TestTimingPeak(t *testing.T) {
	tm := DDR43200()
	peak := tm.ChannelPeakGBs()
	if peak < 25.5 || peak > 25.7 {
		t.Fatalf("DDR4-3200 peak = %.2f GB/s, want 25.6", peak)
	}
	if s := tm.CyclesToSeconds(1600_000_000); s < 0.99 || s > 1.01 {
		t.Fatalf("1.6e9 cycles = %v s, want ~1", s)
	}
}

// sequential builds a stream of consecutive 64 B reads (or writes).
func sequential(n int, write bool) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Phys: uint64(i) * 64, Write: write}
	}
	return reqs
}

func TestSequentialReadsNearPeak(t *testing.T) {
	s := NewSystem(testScheme(1), DDR43200())
	n := reqCount(t, 20000)
	res := s.Run(sequential(n, false))
	util := s.Utilization(res)
	if util < 0.85 {
		t.Fatalf("sequential read utilization = %.2f, want > 0.85 (bw %.1f GB/s)",
			util, res.BandwidthGBs(s.Timing))
	}
	if res.ReadBlocks != int64(n) || res.WriteBlocks != 0 {
		t.Fatalf("blocks: %d reads, %d writes", res.ReadBlocks, res.WriteBlocks)
	}
	if hr := res.RowHitRate(); hr < 0.9 {
		t.Fatalf("sequential row hit rate = %.2f, want > 0.9", hr)
	}
}

func TestSequentialWritesNearPeak(t *testing.T) {
	s := NewSystem(testScheme(1), DDR43200())
	res := s.Run(sequential(reqCount(t, 20000), true))
	if util := s.Utilization(res); util < 0.8 {
		t.Fatalf("sequential write utilization = %.2f, want > 0.8", util)
	}
}

func TestRandomReadsACTBound(t *testing.T) {
	// Single-burst reads from random rows are activate-bound. With a
	// single rank, tFAW caps four ACTs per window, so utilization must sit
	// near the structural ~40% ceiling; with four ranks the ACTs spread
	// out and utilization rises well above it.
	rng := rand.New(rand.NewSource(7))
	makeReqs := func(s *System) []Request {
		capBytes := s.Scheme.Geom.TotalBytes()
		reqs := make([]Request, reqCount(t, 20000))
		for i := range reqs {
			reqs[i] = Request{Phys: (rng.Uint64() % (capBytes / 64)) * 64}
		}
		return reqs
	}
	oneRank := NewSystem(addrmap.CPUBaseline(1, 1, 1<<14), DDR43200())
	resOne := oneRank.Run(makeReqs(oneRank))
	if util := oneRank.Utilization(resOne); util > 0.55 || util < 0.2 {
		t.Fatalf("1-rank random read utilization = %.2f, want tFAW-bound ~0.4", util)
	}
	fourRank := NewSystem(testScheme(1), DDR43200())
	resFour := fourRank.Run(makeReqs(fourRank))
	if utilFour := fourRank.Utilization(resFour); utilFour <= oneRank.Utilization(resOne) {
		t.Fatalf("4-rank utilization %.2f must exceed 1-rank %.2f", utilFour, oneRank.Utilization(resOne))
	}
	if resOne.Activates == 0 || resFour.Activates == 0 {
		t.Fatal("no activates recorded")
	}
}

func TestMoreChannelsMoreBandwidth(t *testing.T) {
	reqs := sequential(reqCount(t, 40000), false)
	s1 := NewSystem(testScheme(1), DDR43200())
	s4 := NewSystem(testScheme(4), DDR43200())
	bw1 := s1.Run(reqs).BandwidthGBs(s1.Timing)
	bw4 := s4.Run(reqs).BandwidthGBs(s4.Timing)
	ratio := bw4 / bw1
	if ratio < 3.2 || ratio > 4.2 {
		t.Fatalf("4-channel speedup = %.2fx, want ~4x (bw1=%.1f bw4=%.1f)", ratio, bw1, bw4)
	}
}

func TestCPUChannelCeiling(t *testing.T) {
	// The structural claim of the paper: adding ranks/DIMMs to the same
	// channels does not add bandwidth; adding TensorDIMM channels does.
	reqs := sequential(reqCount(t, 40000), false)
	cpu8x4 := NewSystem(addrmap.CPUBaseline(8, 4, 1<<14), DDR43200()) // 32 DIMMs
	cpu8x1 := NewSystem(addrmap.CPUBaseline(8, 1, 1<<14), DDR43200()) // 8 DIMMs
	bw32 := cpu8x4.Run(reqs).BandwidthGBs(cpu8x4.Timing)
	bw8 := cpu8x1.Run(reqs).BandwidthGBs(cpu8x1.Timing)
	if bw32 > bw8*1.25 {
		t.Fatalf("extra ranks added bandwidth: %d DIMMs %.1f vs %.1f GB/s", 32, bw32, bw8)
	}
	tnode := NewSystem(addrmap.TensorDIMM(32, 1<<14), DDR43200())
	bwNode := tnode.Run(reqs).BandwidthGBs(tnode.Timing)
	if bwNode < bw32*3 {
		t.Fatalf("TensorNode %.1f GB/s not ~4x CPU %.1f GB/s", bwNode, bw32)
	}
}

func TestRefreshOverheadVisible(t *testing.T) {
	// With refresh enabled, a long run must record refreshes.
	s := NewSystem(testScheme(1), DDR43200())
	res := s.Run(sequential(reqCount(t, 100000), false))
	if res.Refreshes == 0 {
		t.Fatal("expected refreshes during a long run")
	}
}

func TestPhasesSerialize(t *testing.T) {
	s := NewSystem(testScheme(1), DDR43200())
	a := sequential(5000, false)
	b := sequential(5000, true)
	joint := s.RunPhases([][]Request{a, b})
	merged := s.Run(append(append([]Request{}, a...), b...))
	if joint.Cycles < merged.Cycles {
		t.Fatalf("phased run (%d cycles) faster than merged (%d)", joint.Cycles, merged.Cycles)
	}
	if joint.ReadBlocks != 5000 || joint.WriteBlocks != 5000 {
		t.Fatalf("phased blocks: %+v", joint)
	}
}

func TestArrivalGapsRespected(t *testing.T) {
	s := NewSystem(testScheme(1), DDR43200())
	reqs := []Request{
		{Phys: 0},
		{Phys: 64, Arrive: 100000},
	}
	res := s.Run(reqs)
	if res.Cycles < 100000 {
		t.Fatalf("cycles = %d, second request arrives at 100000", res.Cycles)
	}
}

func TestResultAccounting(t *testing.T) {
	var r Result
	r.add(Result{Cycles: 10, ReadBlocks: 2, WriteBlocks: 1, RowHits: 1, RowMisses: 2, Activates: 2, Precharges: 1, Refreshes: 1})
	r.add(Result{Cycles: 5, ReadBlocks: 3})
	if r.Cycles != 10 || r.ReadBlocks != 5 || r.WriteBlocks != 1 {
		t.Fatalf("add: %+v", r)
	}
	if r.Bytes() != 6*64 {
		t.Fatalf("Bytes = %d", r.Bytes())
	}
	if (Result{}).BandwidthGBs(DDR43200()) != 0 {
		t.Fatal("zero result should have zero bandwidth")
	}
	if (Result{}).RowHitRate() != 0 {
		t.Fatal("zero result should have zero hit rate")
	}
}

func TestSystemString(t *testing.T) {
	s := NewSystem(testScheme(2), DDR43200())
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSystem(testScheme(4), DDR43200())
	capBytes := s.Scheme.Geom.TotalBytes()
	reqs := make([]Request, 5000)
	for i := range reqs {
		reqs[i] = Request{Phys: (rng.Uint64() % (capBytes / 64)) * 64, Write: i%3 == 0}
	}
	r1 := s.Run(reqs)
	r2 := s.Run(reqs)
	if r1 != r2 {
		t.Fatalf("nondeterministic results: %+v vs %+v", r1, r2)
	}
}

func BenchmarkSequentialRead(b *testing.B) {
	s := NewSystem(testScheme(1), DDR43200())
	reqs := sequential(10000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(reqs)
	}
}

func TestBankGroupCCDLVisible(t *testing.T) {
	// DDR4 timing fidelity: back-to-back column bursts inside one bank
	// group are spaced by tCCD_L (8 > BL), so a stream pinned to a single
	// bank group must run measurably slower than one that alternates bank
	// groups (tCCD_S == BL, full rate).
	s := NewSystem(addrmap.CPUBaseline(1, 1, 1<<14), DDR43200())
	geom := s.Scheme.Geom
	// Alternating stream: consecutive blocks (the mapping walks bank
	// groups first).
	alt := sequential(8000, false)
	// Pinned stream: same bank group every time — stride by the bank-group
	// field width (the lowest field above the block offset for 1 channel).
	pinned := make([]Request, 8000)
	for i := range pinned {
		pinned[i] = Request{Phys: uint64(i) * uint64(geom.BankGroups) * 64}
	}
	bwAlt := s.Run(alt).BandwidthGBs(s.Timing)
	bwPinned := s.Run(pinned).BandwidthGBs(s.Timing)
	if bwPinned >= bwAlt*0.75 {
		t.Fatalf("tCCD_L invisible: pinned %.1f GB/s vs alternating %.1f GB/s", bwPinned, bwAlt)
	}
}
