package dram

import (
	"fmt"
	"sync"

	"tensordimm/internal/addrmap"
)

// DefaultWindow is the per-channel scheduler window (FR-FCFS lookahead plus
// write buffer), sized like a contemporary server memory controller.
const DefaultWindow = 64

// System is a complete multi-channel memory system: an address-mapping
// scheme plus one controller per channel. DDR4 channels share nothing, so
// they are simulated independently and concurrently.
type System struct {
	Scheme *addrmap.Scheme
	Timing Timing
	Window int
}

// NewSystem builds a system over the given mapping scheme.
func NewSystem(scheme *addrmap.Scheme, timing Timing) *System {
	return &System{Scheme: scheme, Timing: timing, Window: DefaultWindow}
}

// PeakGBs returns the aggregate theoretical peak bandwidth.
func (s *System) PeakGBs() float64 {
	return s.Timing.ChannelPeakGBs() * float64(s.Scheme.Geom.Channels)
}

// Run replays one batch of requests (all dependencies already satisfied) and
// returns aggregate statistics. Within the batch requests are distributed to
// channels by the address mapping and scheduled independently per channel.
func (s *System) Run(reqs []Request) Result {
	return s.RunPhases([][]Request{reqs})
}

// RunPhases replays a sequence of dependent phases: every request of phase
// k+1 arrives only once all requests of phase k have completed (this models
// e.g. a REDUCE consuming the output of a GATHER). Returns aggregate
// statistics with Cycles covering the whole sequence.
func (s *System) RunPhases(phases [][]Request) Result {
	nch := s.Scheme.Geom.Channels
	chans := make([]*channel, nch)
	for i := range chans {
		chans[i] = newChannel(s.Timing, s.Scheme.Geom)
	}

	perChannel := make([][]queuedReq, nch)
	var barrier int64
	for _, phase := range phases {
		// Map and distribute this phase, with arrival at the barrier.
		for _, r := range phase {
			a := s.Scheme.Map(r.Phys)
			arrive := r.Arrive
			if arrive < barrier {
				arrive = barrier
			}
			perChannel[a.Channel] = append(perChannel[a.Channel], queuedReq{addr: a, write: r.Write, arrive: arrive})
		}
		// The next phase may not start before the worst-case completion of
		// this one. We must simulate up to here to know it; run incrementally.
		barrier = s.runUpTo(chans, perChannel)
		for i := range perChannel {
			perChannel[i] = perChannel[i][:0]
		}
	}

	var total Result
	for _, ch := range chans {
		total.add(ch.stats)
	}
	return total
}

// runUpTo drains the currently queued per-channel requests concurrently and
// returns the max completion cycle across channels.
func (s *System) runUpTo(chans []*channel, perChannel [][]queuedReq) int64 {
	var wg sync.WaitGroup
	for i, ch := range chans {
		if len(perChannel[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(ch *channel, reqs []queuedReq) {
			defer wg.Done()
			ch.run(reqs, s.Window)
		}(ch, perChannel[i])
	}
	wg.Wait()
	var maxNow int64
	for _, ch := range chans {
		if ch.now > maxNow {
			maxNow = ch.now
		}
	}
	// Synchronize idle channels to the barrier so later phases see it.
	for _, ch := range chans {
		if ch.now < maxNow {
			ch.now = maxNow
		}
	}
	return maxNow
}

// Utilization returns achieved/peak bandwidth for a result of this system.
func (s *System) Utilization(r Result) float64 {
	peak := s.PeakGBs()
	if peak == 0 {
		return 0
	}
	return r.BandwidthGBs(s.Timing) / peak
}

// String describes the system configuration.
func (s *System) String() string {
	return fmt.Sprintf("dram.System{%s, %d ch x %.1f GB/s = %.1f GB/s peak}",
		s.Scheme.Name(), s.Scheme.Geom.Channels, s.Timing.ChannelPeakGBs(), s.PeakGBs())
}
