package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"tensordimm"
	"tensordimm/internal/telemetry"
)

// outcome is the class one finished request falls into.
type outcome int

const (
	ok          outcome = iota
	shed                // OVERLOADED: admission control refused it
	expired             // its -deadline budget ran out, on either side
	unavailable         // a shard's whole replica group is down
	failed              // anything else
)

// classify sorts a request's error into its outcome. Shed and expired
// requests are the serving stack working as designed under open-loop
// overload; unavailable and failed ones are lost.
func classify(err error) outcome {
	var (
		dl *tensordimm.NetDeadlineError
		de *tensordimm.RemoteDeadlineExceeded
		se *tensordimm.NetServerError
		un *tensordimm.RemoteUnavailable
	)
	switch {
	case err == nil:
		return ok
	case errors.As(err, &dl), errors.As(err, &de):
		// Tripped client-side before the reply, or surfaced by the replica
		// router after retries ran the budget out.
		return expired
	case errors.As(err, &se) && se.Code == tensordimm.NetErrDeadlineExceeded:
		return expired // shed by the server after the propagated budget lapsed
	case errors.As(err, &un):
		// Checked before shed: the replica router retries sheds itself, and
		// a group it gave up on may carry one as its last error.
		return unavailable
	case errors.As(err, &se) && se.Code == tensordimm.NetErrOverloaded:
		return shed
	default:
		return failed
	}
}

// tally is what one open-loop run observed. failed counts every lost
// request, unavailable the subset lost to a fully-down replica group;
// firstErr is the first lost request's error. lat is client-observed
// latency of completed requests, measured from each one's scheduled
// arrival.
type tally struct {
	offered, completed, shed, expired, failed, unavailable int

	firstErr error
	lat      *telemetry.Histogram
	elapsed  time.Duration
}

// source draws one request's inputs and returns the call that issues it.
// drive calls the source in the arrival loop, one request at a time (the
// index generator is sequential), and the returned call on the request's
// own goroutine.
type source func() func() error

// drive offers requests open loop on an absolute schedule: arrival n is
// due at start + n/rate, and late arrivals fire immediately in a catch-up
// burst, so a slow server cannot throttle the offered load. A updFrac
// fraction of arrivals (drawn from seed) come from update, the rest from
// read. Latency is stamped at the due time, not at issue: the time an
// arrival spends waiting behind a late schedule is queueing the client
// sees. Returns once every request has finished.
func drive(rate float64, duration time.Duration, updFrac float64, seed int64, read, update source) tally {
	t := tally{lat: telemetry.NewHistogram()}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	interval := float64(time.Second) / rate
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for {
		due := start.Add(time.Duration(float64(t.offered) * interval))
		if due.Sub(start) >= duration {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		next := read
		if rng.Float64() < updFrac {
			next = update
		}
		call := next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := call()
			took := time.Since(due)
			mu.Lock()
			defer mu.Unlock()
			switch class := classify(err); class {
			case ok:
				t.completed++
				t.lat.Observe(took.Seconds())
			case shed:
				t.shed++
			case expired:
				t.expired++
			default:
				if class == unavailable {
					t.unavailable++
				}
				t.failed++
				if t.firstErr == nil {
					t.firstErr = err
				}
			}
		}()
		t.offered++
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}

// report prints the run's client-side summary.
func (t tally) report(rate float64) {
	fmt.Printf("offered %d requests: %d completed, %d shed (OVERLOADED), %d expired (DEADLINE_EXCEEDED), %d failed (%d with a whole replica group down)\n",
		t.offered, t.completed, t.shed, t.expired, t.failed, t.unavailable)
	fmt.Printf("sustained %.0f req/s against %.0f req/s offered\n",
		float64(t.completed)/t.elapsed.Seconds(), rate)
	fmt.Printf("client-observed latency  %s\n", t.lat.Snapshot())
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "tensorserve: first failure:", t.firstErr)
	}
}

// exitCode is the run's verdict: shed and expired requests are tolerated
// (a -connect driver past the knee expects them; the -join router never
// surfaces a shed, so there any loss is a failure), nothing completing or
// anything lost is not.
func (t tally) exitCode() int {
	if t.completed == 0 || t.failed > 0 {
		return 1
	}
	return 0
}
