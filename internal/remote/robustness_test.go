package remote_test

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/faultnet"
	"tensordimm/internal/netserve"
	"tensordimm/internal/remote"
	"tensordimm/internal/wire"
)

// brownBackend wraps a replica's backend so tests can turn the replica
// into a brown-out: embeds sleep (hold > 0) or block outright (hold < 0)
// while the connection and handshake stay perfectly healthy. Combined
// with a MaxInflight-1 server, one slow embed pins the only admission
// slot and every later read is shed OVERLOADED — the sustained-shed
// failure mode the circuit breaker exists for, which the
// down/syncing/healthy states never see.
type brownBackend struct {
	netserve.Backend
	hold    atomic.Int64 // ns to sleep per embed; negative blocks until release
	rel     chan struct{}
	relOnce sync.Once
}

func (b *brownBackend) EmbedInto(dst []float32, rows [][]int, batch int) ([]float32, error) {
	switch d := b.hold.Load(); {
	case d < 0:
		<-b.rel
	case d > 0:
		time.Sleep(time.Duration(d))
	}
	return b.Backend.EmbedInto(dst, rows, batch)
}

// release unblocks every embed stuck on a negative hold (idempotent) so
// the server can drain at teardown.
func (b *brownBackend) release() { b.relOnce.Do(func() { close(b.rel) }) }

// startShedReplica starts a replica like startReplica, but with a
// brownBackend in front of its serve stack and a single admission slot.
func startShedReplica(t *testing.T, strat cluster.Strategy, nodes, s int) (*replicaProc, *brownBackend) {
	t.Helper()
	srv := deployReplica(t, strat, nodes, s)
	bb := &brownBackend{Backend: netserve.ServerBackend(srv), rel: make(chan struct{})}
	ns, err := netserve.New(bb, netserve.Config{Role: wire.RoleReplica, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.NewInjector()
	go ns.Serve(faultnet.Wrap(l, in))
	var once sync.Once
	rp := &replicaProc{addr: l.Addr().String(), in: in}
	rp.stop = func() {
		once.Do(func() {
			ns.Close()
			srv.Close()
		})
	}
	t.Cleanup(rp.stop)
	// Runs before rp.stop (LIFO): a blocked executor must be released or
	// the server's graceful drain never finishes.
	t.Cleanup(bb.release)
	return rp, bb
}

// TestBreakerCapsAmplification browns out one replica of a two-replica
// group (sheds plus slow admits on a healthy connection) and asserts the
// circuit breaker trips and caps the failover amplification: with 400
// reads and ~200 brown-primary attempts on offer, the tripped breaker
// keeps the observed failovers to a small constant instead of one per
// brown-primary read — and not one request fails.
func TestBreakerCapsAmplification(t *testing.T) {
	m := buildModel(t)
	brown, bb := startShedReplica(t, cluster.TableWise, 1, 0)
	good := startReplica(t, cluster.TableWise, 1, 0, "")
	rc := newTunedRouter(t, m, cluster.TableWise, [][]string{{brown.addr, good.addr}}, nil, func(tu *remote.Tuning) {
		tu.HedgeAfter = time.Second     // no hedging: isolate failover behavior
		tu.BreakerOpenFor = time.Minute // no probe re-admission inside the test window
		tu.RetryBudget = 5              // ample tokens: the breaker must be the cap
		tu.RetryBurst = 64
	})
	bb.hold.Store(int64(300 * time.Millisecond))

	const workers, iters = 8, 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + w)))
			var dst []float32
			for i := 0; i < iters; i++ {
				batch := 1 + rng.Intn(testMaxBatch)
				var err error
				dst, err = rc.EmbedInto(dst, randRows(rng, m.Cfg, batch), batch)
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("read under brown-out failed despite a healthy replica: %v", err)
	}

	reg := instrument(rc)
	reqs, trips, failovers := counter(t, reg, "requests"), counter(t, reg, "breaker_trips"), counter(t, reg, "failovers")
	if reqs != workers*iters {
		t.Fatalf("completed %d reads, want %d (%d breaker trips, %d failovers)", reqs, workers*iters, trips, failovers)
	}
	if trips == 0 {
		t.Fatalf("sustained sheds never tripped the breaker (%d failovers)", failovers)
	}
	// Without the breaker every brown-primary read (~half of 400) costs a
	// failover; with it only the pre-trip window does. 100 leaves slack
	// for re-trip cycles when a slow admit closes the breaker mid-test.
	if failovers > 100 {
		t.Fatalf("breaker did not cap amplification: %d failovers for %d reads (%d breaker trips)",
			failovers, workers*iters, trips)
	}
}

// TestRetryBudgetCapsFailover gives the breaker a zero open time, so a
// tripped breaker re-admits the replica at once, and asserts the shard
// retry budget alone bounds failover amplification: failovers can never
// exceed burst + budget-rate x offered reads, the overflow is denied with
// a typed *Unavailable, and the one read stuck on the wedged replica
// fails typed on its deadline instead of hanging.
func TestRetryBudgetCapsFailover(t *testing.T) {
	m := buildModel(t)
	brown, bb := startShedReplica(t, cluster.TableWise, 1, 0)
	good := startReplica(t, cluster.TableWise, 1, 0, "")
	rc := newTunedRouter(t, m, cluster.TableWise, [][]string{{brown.addr, good.addr}}, func(cfg *remote.Config) {
		cfg.Deadline = 2 * time.Second // bounds the read wedged in the blocked slot
	}, func(tu *remote.Tuning) {
		tu.HedgeAfter = 30 * time.Second // no hedging
		tu.BreakerOpenFor = 0            // breaker re-admits at once: the budget is the only cap
		// Fixed: retryBudget 0.2, retryBurst 16.
	})
	bb.hold.Store(-1) // block the single admission slot outright

	const workers, iters = 4, 50
	var wg sync.WaitGroup
	var badErr atomic.Value
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			var dst []float32
			for i := 0; i < iters; i++ {
				batch := 1 + rng.Intn(testMaxBatch)
				var err error
				dst, err = rc.EmbedInto(dst, randRows(rng, m.Cfg, batch), batch)
				if err == nil {
					continue
				}
				var un *remote.Unavailable
				var de *remote.DeadlineExceeded
				if !errors.As(err, &un) && !errors.As(err, &de) {
					badErr.Store(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err, ok := badErr.Load().(error); ok {
		t.Fatalf("failed read was not typed: %v", err)
	}

	reg := instrument(rc)
	denied, failovers, deadlines := counter(t, reg, "retries_denied"), counter(t, reg, "failovers"), counter(t, reg, "deadline_exceeded")
	if denied == 0 {
		t.Fatalf("brown-out never exhausted the retry budget (%d failovers)", failovers)
	}
	// Hard arithmetic cap: 16 burst tokens + 0.2 per offered read. Every
	// failover past it must have been denied.
	maxFailovers := uint64(16 + (workers*iters)/5)
	if failovers > maxFailovers {
		t.Fatalf("retry budget leaked: %d failovers, cap %d (%d denied)", failovers, maxFailovers, denied)
	}
	if deadlines == 0 {
		t.Fatalf("the read wedged in the blocked slot never hit its deadline (%d failovers, %d denied)", failovers, denied)
	}
}

// TestDeadlineExceededTyped pins end-to-end deadline semantics on the
// remote router: a healthy fleet under a deadline serves bit-identically,
// a stalled fleet fails within the budget (not the stall) with a typed
// *DeadlineExceeded, and the abandoned attempt's late answer is dropped
// cleanly so the fleet serves again the moment the stall clears.
func TestDeadlineExceededTyped(t *testing.T) {
	m := buildModel(t)
	a := startReplica(t, cluster.TableWise, 1, 0, "")
	rc := newRouter(t, m, cluster.TableWise, [][]string{{a.addr}}, func(cfg *remote.Config) {
		cfg.Deadline = 25 * time.Millisecond
	})
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 5; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, rc, randRows(rng, m.Cfg, batch), batch)
	}

	// The injector delays each Read at entry, so a Read the server is
	// already parked in passes un-delayed — keep issuing reads until one
	// lands behind a delayed Read and stalls.
	a.in.SetReadDelay(300 * time.Millisecond)
	var de *remote.DeadlineExceeded
	var elapsed time.Duration
	waitCond(t, 5*time.Second, "a deadline-bounded failure", func() bool {
		start := time.Now()
		_, err := rc.EmbedInto(nil, randRows(rng, m.Cfg, 2), 2)
		elapsed = time.Since(start)
		return errors.As(err, &de)
	})
	if de.Shard != 0 || de.Budget != 25*time.Millisecond {
		t.Fatalf("DeadlineExceeded{Shard: %d, Budget: %v}, want shard 0 budget 25ms", de.Shard, de.Budget)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bounded read took %v, budget was 25ms", elapsed)
	}
	a.in.SetReadDelay(0)

	// netclient drops the abandoned attempt's late answer; once the stall
	// clears the same router serves bit-identical reads again.
	waitCond(t, 5*time.Second, "fleet recovery after the stall", func() bool {
		_, err := rc.EmbedInto(nil, randRows(rng, m.Cfg, 1), 1)
		return err == nil
	})
	for i := 0; i < 5; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, rc, randRows(rng, m.Cfg, batch), batch)
	}
	if counter(t, instrument(rc), "deadline_exceeded") == 0 {
		t.Fatal("DeadlineExceeded counter never moved")
	}
}
