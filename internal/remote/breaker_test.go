package remote

import (
	"testing"
	"time"
)

// TestBreakerStateMachine drives one breaker through the full
// closed -> open -> half-open -> (re-open | closed) cycle with explicit
// clocks, pinning the trip threshold, the probe admission rules, and the
// window reset on recovery.
func TestBreakerStateMachine(t *testing.T) {
	cfg := breakerCfg{size: 8, need: 4, threshold: 0.5, openFor: 100 * time.Millisecond}
	var b breaker
	t0 := time.Unix(1000, 0)

	for i := 0; i < 20; i++ {
		b.ok(&cfg)
		if !b.allow(&cfg, t0) {
			t.Fatal("healthy breaker rejected traffic")
		}
	}
	trips := 0
	for i := 0; i < 8; i++ {
		if b.fail(&cfg, t0) {
			trips++
		}
	}
	if trips != 1 {
		t.Fatalf("8 straight failures tripped %d times, want exactly 1", trips)
	}
	if b.allow(&cfg, t0) {
		t.Fatal("open breaker admitted traffic")
	}
	if b.allow(&cfg, t0.Add(cfg.openFor/2)) {
		t.Fatal("open breaker admitted traffic before openFor elapsed")
	}

	// Past openFor: exactly one probe per window.
	t1 := t0.Add(cfg.openFor + 50*time.Millisecond)
	if !b.allow(&cfg, t1) {
		t.Fatal("probe not granted after openFor")
	}
	if b.allow(&cfg, t1) {
		t.Fatal("second probe granted in the same window")
	}

	// Probe failure re-opens without counting as a fresh trip.
	if b.fail(&cfg, t1) {
		t.Fatal("probe failure counted as a closed->open trip")
	}
	if b.allow(&cfg, t1.Add(cfg.openFor/2)) {
		t.Fatal("re-opened breaker admitted traffic")
	}

	// A lost probe (an abandoned hedge) must not wedge the breaker: a
	// fresh window grants another probe even though the previous one never
	// settled.
	t2 := t1.Add(2 * cfg.openFor)
	if !b.allow(&cfg, t2) {
		t.Fatal("probe not granted after the previous one was lost")
	}
	b.ok(&cfg)
	if !b.allow(&cfg, t2) {
		t.Fatal("closed breaker rejected traffic after a successful probe")
	}

	// The probe's success reset the window: it takes `need` fresh
	// failures to trip again, not a single one landing on old history.
	for i := 0; i < cfg.need-1; i++ {
		if b.fail(&cfg, t2) {
			t.Fatalf("tripped after %d failures, below the %d-observation floor", i+1, cfg.need)
		}
	}
	if !b.fail(&cfg, t2) {
		t.Fatalf("%d straight failures on a clean window did not trip", cfg.need)
	}
}

// TestBreakerMixedWindow checks the rolling-window arithmetic: failures
// below the threshold fraction never trip, and old outcomes slide out.
func TestBreakerMixedWindow(t *testing.T) {
	cfg := breakerCfg{size: 8, need: 4, threshold: 0.5, openFor: time.Second}
	var b breaker
	t0 := time.Unix(2000, 0)
	// Alternate success/failure far past the window size: 50% failure
	// rate meets threshold 0.5 only once enough samples accumulate —
	// verify a sub-threshold mix (1 failure per 3 successes) never trips.
	for i := 0; i < 64; i++ {
		if i%4 == 0 {
			if b.fail(&cfg, t0) {
				t.Fatalf("tripped at 25%% failure rate (i=%d)", i)
			}
		} else {
			b.ok(&cfg)
		}
	}
	// Now saturate with failures: the successes slide out of the window
	// and the breaker trips.
	tripped := false
	for i := 0; i < 8; i++ {
		if b.fail(&cfg, t0) {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("saturating failures never tripped the breaker")
	}
}

// TestRetryTokens pins the failover token bucket's arithmetic: grants
// stop at an empty bucket, sub-token refills accumulate, and the bucket
// never exceeds its cap.
func TestRetryTokens(t *testing.T) {
	var sh rShard
	sh.retryTokens.Store(2000)
	if !sh.takeRetry() || !sh.takeRetry() {
		t.Fatal("full bucket refused a token")
	}
	if sh.takeRetry() {
		t.Fatal("empty bucket granted a token")
	}
	sh.refillRetry(200, 16000)
	if sh.takeRetry() {
		t.Fatal("200 millitokens granted a full token")
	}
	for i := 0; i < 4; i++ {
		sh.refillRetry(200, 16000)
	}
	if !sh.takeRetry() {
		t.Fatal("five 0.2-token refills did not accumulate into a grant")
	}
	for i := 0; i < 100; i++ {
		sh.refillRetry(1000, 3000)
	}
	if got := sh.retryTokens.Load(); got != 3000 {
		t.Fatalf("bucket holds %d millitokens, want capped at 3000", got)
	}
}
