package remote

import (
	"sync"
	"sync/atomic"
	"time"
)

// Circuit breaker states. A replica's breaker is closed (traffic flows)
// until its rolling failure rate trips it open (no traffic); after
// openFor it half-opens, admitting one probe attempt per openFor window,
// and the probe's outcome either closes it or re-opens it. The breaker is
// orthogonal to the down/syncing/healthy connection state machine: it
// exists for the brown-out replica whose connection is alive but whose
// attempts keep failing (flapping sockets, sustained sheds), which the
// health states alone would keep routing traffic into.
const (
	brkClosed int32 = iota
	brkOpen
	brkHalfOpen
)

// breakerCfg is the resolved breaker tuning shared by every replica of a
// router.
type breakerCfg struct {
	size      int           // rolling outcome window (<= 64)
	need      int           // minimum observations before tripping
	threshold float64       // failure fraction within the window that trips
	openFor   time.Duration // open duration, and the spacing between probes
}

// breaker is one replica's circuit breaker: a rolling bitmask window of
// recent attempt outcomes and a small state machine over it. The hot-path
// read (allow on a closed breaker) is a single atomic load; the window
// mutex is only taken to record an outcome.
type breaker struct {
	state    atomic.Int32
	openedAt atomic.Int64 // UnixNano of the trip (open) or last probe grant (half-open)

	mu     sync.Mutex
	window uint64 // ring bitmask of the last `size` outcomes; 1 = failure
	count  int    // observations currently in the window
	idx    int    // next ring position
	fails  int    // failures currently in the window
}

// allow reports whether an attempt may be sent to this replica now. On an
// open breaker past its openFor, the winning caller transitions it to
// half-open and becomes the probe; in half-open, one probe is granted per
// openFor window (so a probe lost to a reaped hedge or a dead connection
// cannot wedge the replica out of the rotation forever).
func (b *breaker) allow(cfg *breakerCfg, now time.Time) bool {
	switch b.state.Load() {
	case brkClosed:
		return true
	case brkOpen:
		at := b.openedAt.Load()
		if now.UnixNano()-at < int64(cfg.openFor) {
			return false
		}
		if b.state.CompareAndSwap(brkOpen, brkHalfOpen) {
			b.openedAt.Store(now.UnixNano())
			return true // this attempt is the probe
		}
		return false
	default: // half-open
		at := b.openedAt.Load()
		if now.UnixNano()-at < int64(cfg.openFor) {
			return false
		}
		// The previous probe never settled; grant another.
		return b.openedAt.CompareAndSwap(at, now.UnixNano())
	}
}

// ok records a successful attempt. A success while open or half-open is a
// probe (or a straggler) proving the replica back: the breaker closes
// with a clean window.
func (b *breaker) ok(cfg *breakerCfg) {
	if b.state.Load() != brkClosed {
		b.reset()
		return
	}
	b.observe(cfg, false)
}

// fail records a failed attempt and reports whether it tripped the
// breaker closed->open. A failure while half-open re-opens immediately
// (the probe failed); a failure while already open is a straggler and is
// ignored.
func (b *breaker) fail(cfg *breakerCfg, now time.Time) bool {
	switch b.state.Load() {
	case brkHalfOpen:
		b.openedAt.Store(now.UnixNano())
		b.state.Store(brkOpen)
		return false
	case brkOpen:
		return false
	}
	if !b.observe(cfg, true) {
		return false
	}
	b.openedAt.Store(now.UnixNano())
	b.state.Store(brkOpen)
	return true
}

// observe records one closed-state outcome in the rolling window and
// reports whether the failure rate now trips the breaker.
func (b *breaker) observe(cfg *breakerCfg, failed bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	bit := uint64(1) << uint(b.idx)
	if b.count == cfg.size && b.window&bit != 0 {
		b.fails--
	}
	if failed {
		b.window |= bit
		b.fails++
	} else {
		b.window &^= bit
	}
	b.idx = (b.idx + 1) % cfg.size
	if b.count < cfg.size {
		b.count++
	}
	return b.count >= cfg.need && float64(b.fails) >= cfg.threshold*float64(b.count)
}

// reset closes the breaker with a clean window — called on a successful
// probe and when a replica rejoins through a catch-up resync (its history
// predates the recovery and would only delay re-admission).
func (b *breaker) reset() {
	b.mu.Lock()
	b.window, b.count, b.idx, b.fails = 0, 0, 0, 0
	b.mu.Unlock()
	b.state.Store(brkClosed)
}

// refillRetry credits the shard's failover token bucket for one offered
// read request: budget millitokens, capped at the bucket's capacity.
func (sh *rShard) refillRetry(budgetMilli, capMilli int64) {
	for {
		cur := sh.retryTokens.Load()
		next := cur + budgetMilli
		if next > capMilli {
			next = capMilli
		}
		if next == cur || sh.retryTokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// takeRetry spends one failover token (1000 millitokens), reporting false
// when the bucket is empty — the caller must fail the request instead of
// retrying, which is what caps failover amplification under a brown-out.
func (sh *rShard) takeRetry() bool {
	for {
		cur := sh.retryTokens.Load()
		if cur < 1000 {
			return false
		}
		if sh.retryTokens.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}
