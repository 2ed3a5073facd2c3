package dram

import (
	"tensordimm/internal/addrmap"
)

// cmdKind enumerates DRAM commands the controller can issue.
type cmdKind int

const (
	cmdACT cmdKind = iota
	cmdPRE
	cmdRD
	cmdWR
)

// Request is one 64-byte DRAM transaction presented to the controller.
type Request struct {
	Phys   uint64 // physical byte address (64 B aligned by convention)
	Write  bool
	Arrive int64 // earliest cycle the request may be scheduled
}

// queued is the controller-internal view of a request.
type queued struct {
	addr   addrmap.Addr
	write  bool
	seq    int64 // admission order, for FCFS aging
	missed bool  // an ACT or PRE was issued on behalf of this request
}

// bankState tracks one DRAM bank.
type bankState struct {
	openRow int   // -1 when precharged
	nextACT int64 // earliest cycle an ACT may issue
	nextRD  int64 // earliest cycle a RD may issue (tRCD after ACT)
	nextWR  int64
	nextPRE int64
}

// rankState tracks rank-wide constraints.
type rankState struct {
	banks    []bankState // BankGroups*Banks, index bg*banks+bank
	actTimes [4]int64    // ring of the last four ACT issue cycles (tFAW)
	actHead  int
	lastACT  int64 // most recent ACT on this rank (tRRD_S lower bound)
	// lastACTBG is the most recent ACT per bank group (tRRD_L).
	lastACTBG []int64
	// lastColBG is the most recent RD/WR issue per bank group (tCCD_L).
	lastColBG []int64
	// wrDataEnd is when the last write burst finishes on this rank (tWTR).
	wrDataEnd int64
	nextREF   int64
}

// channel simulates one independent DDR4 channel.
type channel struct {
	timing Timing
	geom   addrmap.Geometry

	ranks []*rankState
	queue []queued
	seq   int64

	now        int64 // current cycle
	nextCmdAt  int64 // C/A bus: one command per cycle
	busFreeAt  int64 // data bus occupied until this cycle
	lastWasWr  bool  // direction of the last data burst (turnaround)
	lastRank   int   // rank of the last data burst (tRTRS)
	lastDataAt int64

	// writeDrain batches writes to amortize bus-turnaround penalties, as
	// real controllers do: reads are served until the write queue passes
	// the high watermark, then writes drain down to the low watermark.
	writeDrain bool

	stats Result
}

// Write-drain watermarks, as fractions of the scheduler window.
const (
	drainHighFrac = 2 // start draining when writes > window/2
	drainLowCount = 2 // stop draining when writes <= 2
)

// Result aggregates simulation statistics. For multi-channel systems the
// per-channel results are summed, with Cycles being the maximum across
// channels (wall-clock).
type Result struct {
	Cycles      int64
	ReadBlocks  int64
	WriteBlocks int64
	RowHits     int64
	RowMisses   int64
	Activates   int64
	Precharges  int64
	Refreshes   int64
}

// Bytes returns the total data moved.
func (r Result) Bytes() int64 { return (r.ReadBlocks + r.WriteBlocks) * 64 }

// BandwidthGBs returns achieved bandwidth in GB/s for the given timing.
func (r Result) BandwidthGBs(t Timing) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Bytes()) / t.CyclesToSeconds(r.Cycles) / 1e9
}

// RowHitRate returns the fraction of column accesses that hit an open row.
func (r Result) RowHitRate() float64 {
	total := r.RowHits + r.RowMisses
	if total == 0 {
		return 0
	}
	return float64(r.RowHits) / float64(total)
}

// add accumulates o into r, taking the max of Cycles.
func (r *Result) add(o Result) {
	if o.Cycles > r.Cycles {
		r.Cycles = o.Cycles
	}
	r.ReadBlocks += o.ReadBlocks
	r.WriteBlocks += o.WriteBlocks
	r.RowHits += o.RowHits
	r.RowMisses += o.RowMisses
	r.Activates += o.Activates
	r.Precharges += o.Precharges
	r.Refreshes += o.Refreshes
}

func newChannel(t Timing, g addrmap.Geometry) *channel {
	ch := &channel{timing: t, geom: g}
	ch.ranks = make([]*rankState, g.Ranks)
	for i := range ch.ranks {
		rk := &rankState{
			banks:     make([]bankState, g.BankGroups*g.Banks),
			lastACTBG: make([]int64, g.BankGroups),
			lastColBG: make([]int64, g.BankGroups),
			nextREF:   int64(t.REFI),
		}
		for b := range rk.banks {
			rk.banks[b].openRow = -1
		}
		for i := range rk.actTimes {
			rk.actTimes[i] = -1 << 40
		}
		for i := range rk.lastACTBG {
			rk.lastACTBG[i] = -1 << 40
			rk.lastColBG[i] = -1 << 40
		}
		rk.lastACT = -1 << 40
		rk.wrDataEnd = -1 << 40
		ch.ranks[i] = rk
	}
	ch.lastDataAt = -1 << 40
	return ch
}

func (ch *channel) bank(a addrmap.Addr) *bankState {
	return &ch.ranks[a.Rank].banks[a.BankGroup*ch.geom.Banks+a.Bank]
}

// refreshDue performs any pending refreshes whose deadline has passed. A REF
// closes all banks in the rank and blocks it for tRFC.
func (ch *channel) refreshDue() {
	t := &ch.timing
	for _, rk := range ch.ranks {
		for ch.now >= rk.nextREF {
			start := rk.nextREF
			if ch.now > start {
				start = ch.now
			}
			done := start + int64(t.RFC)
			for b := range rk.banks {
				bk := &rk.banks[b]
				bk.openRow = -1
				if bk.nextACT < done {
					bk.nextACT = done
				}
			}
			rk.nextREF += int64(t.REFI)
			ch.stats.Refreshes++
		}
	}
}

// nextCommand computes, for request q, the next command required and the
// earliest cycle it may issue (>= ch.now).
func (ch *channel) nextCommand(q *queued) (cmdKind, int64) {
	t := &ch.timing
	rk := ch.ranks[q.addr.Rank]
	bk := ch.bank(q.addr)
	at := ch.now
	if ch.nextCmdAt > at {
		at = ch.nextCmdAt
	}

	switch {
	case bk.openRow == q.addr.Row:
		// Column command. The data burst may start no earlier than the bus
		// becomes free plus any turnaround gap: direction switches cost the
		// driver/ODT turnaround, and consecutive bursts from different
		// ranks cost the rank-to-rank switch time.
		var busGap int64
		if ch.lastDataAt > 0 {
			switch {
			case q.write != ch.lastWasWr:
				busGap = int64(t.RTW) // direction turnaround either way
			case q.addr.Rank != ch.lastRank:
				busGap = 2 // tRTRS
			}
		}
		var ready int64
		if q.write {
			ready = bk.nextWR
			// Bus: write data occupies [issue+CWL, issue+CWL+BL).
			if v := ch.busFreeAt + busGap - int64(t.CWL); v > ready {
				ready = v
			}
		} else {
			ready = bk.nextRD
			if v := ch.busFreeAt + busGap - int64(t.CL); v > ready {
				ready = v
			}
			// Write->read turnaround on the same rank (tWTR after write data).
			if v := rk.wrDataEnd + int64(t.WTRL); v > ready {
				ready = v
			}
		}
		// tCCD_L within the same bank group.
		if v := rk.lastColBG[q.addr.BankGroup] + int64(t.CCDL); v > ready {
			ready = v
		}
		if ready < at {
			ready = at
		}
		if q.write {
			return cmdWR, ready
		}
		return cmdRD, ready

	case bk.openRow == -1:
		// Activate. Respect tRRD and tFAW.
		ready := bk.nextACT
		if v := rk.lastACT + int64(t.RRDS); v > ready {
			ready = v
		}
		if v := rk.lastACTBG[q.addr.BankGroup] + int64(t.RRDL); v > ready {
			ready = v
		}
		if v := rk.actTimes[rk.actHead] + int64(t.FAW); v > ready {
			ready = v
		}
		if ready < at {
			ready = at
		}
		return cmdACT, ready

	default:
		// Row conflict: precharge first.
		ready := bk.nextPRE
		if ready < at {
			ready = at
		}
		return cmdPRE, ready
	}
}

// issue executes the chosen command at cycle `at` and returns true when the
// request itself completed (its column command was issued).
func (ch *channel) issue(q *queued, kind cmdKind, at int64) bool {
	t := &ch.timing
	rk := ch.ranks[q.addr.Rank]
	bk := ch.bank(q.addr)
	ch.nextCmdAt = at + 1
	ch.now = at

	switch kind {
	case cmdACT:
		q.missed = true
		bk.openRow = q.addr.Row
		bk.nextRD = at + int64(t.RCD)
		bk.nextWR = at + int64(t.RCD)
		bk.nextPRE = at + int64(t.RAS)
		bk.nextACT = at + int64(t.RC)
		rk.lastACT = at
		rk.lastACTBG[q.addr.BankGroup] = at
		rk.actTimes[rk.actHead] = at
		rk.actHead = (rk.actHead + 1) % len(rk.actTimes)
		ch.stats.Activates++
		return false

	case cmdPRE:
		q.missed = true
		bk.openRow = -1
		if v := at + int64(t.RP); v > bk.nextACT {
			bk.nextACT = v
		}
		ch.stats.Precharges++
		return false

	case cmdRD:
		ch.recordHit(q)
		dataStart := at + int64(t.CL)
		ch.busFreeAt = dataStart + int64(t.BL)
		ch.lastWasWr = false
		ch.lastRank = q.addr.Rank
		ch.lastDataAt = dataStart
		rk.lastColBG[q.addr.BankGroup] = at
		if v := at + int64(t.RTP); v > bk.nextPRE {
			bk.nextPRE = v
		}
		ch.stats.ReadBlocks++
		return true

	case cmdWR:
		ch.recordHit(q)
		dataStart := at + int64(t.CWL)
		dataEnd := dataStart + int64(t.BL)
		ch.busFreeAt = dataEnd
		ch.lastWasWr = true
		ch.lastRank = q.addr.Rank
		ch.lastDataAt = dataStart
		rk.lastColBG[q.addr.BankGroup] = at
		rk.wrDataEnd = dataEnd
		if v := dataEnd + int64(t.WR); v > bk.nextPRE {
			bk.nextPRE = v
		}
		ch.stats.WriteBlocks++
		return true
	}
	return false
}

// run drains the request stream through the controller. Requests are admitted
// into a window of `window` entries in arrival order; within the window the
// scheduler is first-ready FR-FCFS. Returns when all requests completed.
func (ch *channel) run(reqs []queuedReq, window int) {
	next := 0
	for len(ch.queue) > 0 || next < len(reqs) {
		// Admit arrivals.
		for next < len(reqs) && len(ch.queue) < window && reqs[next].arrive <= ch.now {
			ch.queue = append(ch.queue, queued{addr: reqs[next].addr, write: reqs[next].write, seq: ch.seq})
			ch.seq++
			next++
		}
		if len(ch.queue) == 0 {
			// Jump to the next arrival.
			ch.now = reqs[next].arrive
			continue
		}
		ch.refreshDue()

		// Update the write-drain mode from queue occupancy.
		var nWrites, nReads int
		for i := range ch.queue {
			if ch.queue[i].write {
				nWrites++
			} else {
				nReads++
			}
		}
		if ch.writeDrain {
			if nWrites <= drainLowCount && nReads > 0 {
				ch.writeDrain = false
			}
		} else if nReads == 0 || nWrites > window/drainHighFrac {
			ch.writeDrain = true
		}

		// Precompute which banks have pending row hits, so the scheduler
		// never closes a row other queued requests can still use (the
		// FR part of FR-FCFS; also prevents ACT/PRE thrashing).
		hitBanks := make(map[[3]int]bool, len(ch.queue))
		for i := range ch.queue {
			a := ch.queue[i].addr
			if ch.bank(a).openRow == a.Row {
				hitBanks[[3]int{a.Rank, a.BankGroup, a.Bank}] = true
			}
		}

		// Pick the best issuable command by score: the earliest legal issue
		// time, with strong (but soft) penalties for (a) write column
		// commands outside a drain burst — writes are posted and can wait,
		// which batches bus directions — and (b) precharges that would
		// close a row other queued requests still hit. Reads are never
		// held back: they are latency-bound and their activates overlap
		// write bursts. Soft penalties keep the controller starvation-free.
		const dirPenalty, prePenalty = 10_000, 10_000
		bestIdx := -1
		var bestKind cmdKind
		var bestAt, bestScore int64
		for i := range ch.queue {
			kind, at := ch.nextCommand(&ch.queue[i])
			score := at
			if kind == cmdWR && !ch.writeDrain {
				score += dirPenalty
			}
			a := ch.queue[i].addr
			if kind == cmdPRE && hitBanks[[3]int{a.Rank, a.BankGroup, a.Bank}] {
				score += prePenalty
			}
			if bestIdx == -1 || score < bestScore ||
				(score == bestScore && colPriority(kind) > colPriority(bestKind)) ||
				(score == bestScore && colPriority(kind) == colPriority(bestKind) && ch.queue[i].seq < ch.queue[bestIdx].seq) {
				bestIdx, bestKind, bestAt, bestScore = i, kind, at, score
			}
		}
		if done := ch.issue(&ch.queue[bestIdx], bestKind, bestAt); done {
			ch.queue = append(ch.queue[:bestIdx], ch.queue[bestIdx+1:]...)
		}
	}
	// Account for the tail of the last data burst.
	if ch.busFreeAt > ch.now {
		ch.now = ch.busFreeAt
	}
	ch.stats.Cycles = ch.now
}

// recordHit classifies a completing request as a row hit or miss.
func (ch *channel) recordHit(q *queued) {
	if q.missed {
		ch.stats.RowMisses++
	} else {
		ch.stats.RowHits++
	}
}

// colPriority orders command kinds when issue times tie: column commands
// first, then ACT, then PRE.
func colPriority(k cmdKind) int {
	switch k {
	case cmdRD, cmdWR:
		return 2
	case cmdACT:
		return 1
	default:
		return 0
	}
}

// queuedReq is a pre-mapped request bound for one channel.
type queuedReq struct {
	addr   addrmap.Addr
	write  bool
	arrive int64
}
