package remote

import "time"

// Tuning is the robustness tuning New fixes to constants, for tests that
// isolate one mechanism: hedging, the circuit breaker or the retry budget.
type Tuning struct {
	HedgeAfter     time.Duration
	BreakerOpenFor time.Duration
	RetryBudget    float64
	RetryBurst     int
}

// NewTuned is New with tune applied to the fixed tuning first.
func NewTuned(cfg Config, tune func(*Tuning)) (*RemoteCluster, error) {
	t := Tuning{hedgeAfter, breakerOpenFor, retryBudget, retryBurst}
	tune(&t)
	return newCluster(cfg, tuning{t.HedgeAfter, t.BreakerOpenFor, t.RetryBudget, t.RetryBurst})
}

// HoldUpdateLock takes shard s's update lock — the one an update holds
// across its replica round trips, a snapshot scrape or a shed back-off —
// and returns its release.
func (rc *RemoteCluster) HoldUpdateLock(s int) (release func()) {
	sh := rc.shards[s]
	sh.updMu.Lock()
	return sh.updMu.Unlock
}
