package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tensordimm"
)

// defaults mirrors the flag defaults main registers.
func defaults() flags {
	return flags{
		modelName: "youtube", rows: 4000, dim: 256, dimms: 8, batch: 1,
		rate: 1000, duration: 2 * time.Second, maxBatch: 64,
		workers: 4, zipfS: 1.2, seed: 1,
		nodes: 1, shard: "table", conns: 2, inflight: 256, shardID: -1,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		set     string // comma-separated names of the flags given
		with    func(f *flags)
		wantErr string // substring of the rejection; "" means accepted
	}{
		{"in-process defaults", "", func(f *flags) {}, ""},
		{"in-process batch over maxbatch", "batch", func(f *flags) { f.batch = 65 }, "-batch 65 exceeds -maxbatch 64"},
		{"in-process dim off stripe", "dim", func(f *flags) { f.dim = 100 }, "multiple of dimms x 16"},

		{"listen cluster", "listen,nodes,cache-mb", func(f *flags) { f.listen, f.nodes, f.cacheMB = ":1", 2, 1 }, ""},
		{"listen with rate", "listen,rate", func(f *flags) { f.listen, f.rate = ":1", 5 }, "-rate cannot be combined with -listen"},
		{"listen and connect", "listen,connect", func(f *flags) { f.listen, f.connect = ":1", ":2" }, "mutually exclusive"},

		{"connect", "connect,rate,conns", func(f *flags) { f.connect, f.rate, f.conns = ":1", 50, 4 }, ""},
		{"connect with rows", "connect,rows", func(f *flags) { f.connect, f.rows = ":1", 9 }, "-rows cannot be combined with -connect"},
		{"connect with zero conns", "connect,conns", func(f *flags) { f.connect, f.conns = ":1", 0 }, "-conns 0 must be at least 1"},

		{"join", "join,model,rows,replicas", func(f *flags) { f.join, f.modelName, f.rows, f.replicas = "a,b/c,d", "ncf", 64, 2 }, ""},
		{"join with workers", "join,workers", func(f *flags) { f.join, f.workers = "a", 2 }, "-workers cannot be combined with -join"},
		{"join with zero dim", "join,dim", func(f *flags) { f.join, f.dim = "a", 0 }, "-dim 0 must be at least 1"},
		{"join with zero rows", "join,rows", func(f *flags) { f.join, f.rows = "a", 0 }, "-rows 0 must be at least 1"},
		{"join replicas mismatch", "join,replicas", func(f *flags) { f.join, f.replicas = "a,b/c", 2 }, "shard 1's group lists 1 addresses"},

		{"sticky join", "join,sticky", func(f *flags) { f.join, f.sticky = "a", true }, ""},
		{"sticky with updates", "join,sticky,update-frac", func(f *flags) { f.join, f.sticky, f.updFrac = "a", true, 0.1 }, "-sticky refuses -update-frac"},
		{"sticky without join", "sticky", func(f *flags) { f.sticky = true }, "-sticky needs -join"},

		{"shard-id in range", "listen,nodes,shard-id", func(f *flags) { f.listen, f.nodes, f.shardID = ":1", 2, 1 }, ""},
		{"shard-id out of range", "listen,nodes,shard-id", func(f *flags) { f.listen, f.nodes, f.shardID = ":1", 2, 2 }, "-shard-id 2 out of range"},
		{"shard-id without listen", "shard-id", func(f *flags) { f.shardID = 0 }, "-shard-id needs -listen"},

		{"deadline with connect", "connect,deadline", func(f *flags) { f.connect, f.deadline = ":1", time.Second }, ""},
		{"deadline without a client mode", "deadline", func(f *flags) { f.deadline = time.Second }, "-deadline needs -connect or -join"},

		{"data-dir with join", "join,data-dir", func(f *flags) { f.join, f.dataDir = "a", "/d" }, ""},
		{"data-dir with cluster listen", "listen,nodes,data-dir", func(f *flags) { f.listen, f.nodes, f.dataDir = ":1", 2, "/d" }, ""},
		{"data-dir with single-node listen", "listen,data-dir", func(f *flags) { f.listen, f.dataDir = ":1", "/d" }, "-data-dir needs -join"},
		{"data-dir in-process", "data-dir", func(f *flags) { f.dataDir = "/d" }, "-data-dir needs -join"},
	}
	for _, c := range cases {
		f := defaults()
		c.with(&f)
		set := map[string]bool{}
		for _, name := range strings.Split(c.set, ",") {
			set[name] = true
		}
		err := validate(f, set)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected with %q, want accepted", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want a rejection mentioning %q", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: rejected with %q, want it to mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseJoin(t *testing.T) {
	cases := []struct {
		in      string
		want    string // fmt %q of the groups
		wantErr bool
	}{
		{"a,b/c,d", `[["a" "b"] ["c" "d"]]`, false},
		{" a , b / c ", `[["a" "b"] ["c"]]`, false},
		{"a//b", `[["a"] [] ["b"]]`, false}, // a shard the placement leaves empty
		{"a/", `[["a"] []]`, false},
		{"a,,b", "", true},
		{"a, /b", "", true},
	}
	for _, c := range cases {
		got, err := parseJoin(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseJoin(%q) = %q, want an error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseJoin(%q): %v", c.in, err)
		} else if s := fmt.Sprintf("%q", got); s != c.want {
			t.Errorf("parseJoin(%q) = %s, want %s", c.in, s, c.want)
		}
	}
}

// finishes runs drive on its own goroutine and fails the test if it has
// not returned within ten seconds — a closed loop, which waits for request
// n before offering n+1, never would in the tests below.
func finishes(t *testing.T, run func() tally) tally {
	t.Helper()
	done := make(chan tally, 1)
	go func() { done <- run() }()
	select {
	case tl := <-done:
		return tl
	case <-time.After(10 * time.Second):
		t.Fatal("drive did not return")
		return tally{}
	}
}

// TestDriveIsOpenLoop blocks every request until all but one of the
// scheduled arrivals are in flight at once: the schedule, not completions,
// must set the offered load.
func TestDriveIsOpenLoop(t *testing.T) {
	const rate, duration = 2000.0, 50 * time.Millisecond
	want := int(rate * duration.Seconds())
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		n := 0
		for range started {
			if n++; n == want-1 {
				close(release)
			}
		}
	}()
	blocking := func() func() error {
		return func() error {
			started <- struct{}{}
			<-release
			return nil
		}
	}
	tl := finishes(t, func() tally { return drive(rate, duration, 0, 1, blocking, blocking) })
	close(started)
	if tl.offered < want-1 || tl.offered > want+1 {
		t.Fatalf("offered %d requests, want %d ± 1", tl.offered, want)
	}
	if tl.completed != tl.offered || tl.failed != 0 {
		t.Fatalf("completed %d, failed %d of %d offered", tl.completed, tl.failed, tl.offered)
	}
	if n := tl.lat.Snapshot().Count; int(n) != tl.completed {
		t.Fatalf("latency histogram holds %d samples, want one per completed request (%d)", n, tl.completed)
	}
}

// TestDriveClassifiesErrors feeds one error of every kind the serving
// stack returns and checks the class each lands in.
func TestDriveClassifiesErrors(t *testing.T) {
	overloaded := &tensordimm.NetServerError{Code: tensordimm.NetErrOverloaded}
	errs := []error{
		nil,
		overloaded,
		&tensordimm.NetDeadlineError{Budget: time.Second},
		&tensordimm.RemoteDeadlineExceeded{Shard: 1},
		&tensordimm.NetServerError{Code: tensordimm.NetErrDeadlineExceeded},
		&tensordimm.RemoteUnavailable{Shard: 1},
		&tensordimm.RemoteUnavailable{Shard: 1, Err: overloaded}, // a group given up on after sheds is lost, not shed
		fmt.Errorf("wrapped: %w", &tensordimm.RemoteUnavailable{Shard: 2}),
		&tensordimm.NetServerError{Code: tensordimm.NetErrUnavailable},
		errors.New("boom"),
	}
	n := 0
	next := func() func() error {
		err := errs[n%len(errs)]
		n++
		return func() error { return err }
	}
	// 1000 req/s for len(errs) ms: arrival i is due at exactly i ms.
	tl := finishes(t, func() tally {
		return drive(1000, time.Duration(len(errs))*time.Millisecond, 0, 1, next, next)
	})
	got := fmt.Sprintf("offered %d completed %d shed %d expired %d unavailable %d failed %d",
		tl.offered, tl.completed, tl.shed, tl.expired, tl.unavailable, tl.failed)
	if want := "offered 10 completed 1 shed 1 expired 3 unavailable 3 failed 5"; got != want {
		t.Fatalf("tally: %s, want %s", got, want)
	}
	if tl.firstErr == nil || classify(tl.firstErr) < unavailable {
		t.Fatalf("first error %v, want one of the lost requests'", tl.firstErr)
	}
	if tl.exitCode() != 1 {
		t.Fatal("a run with lost requests must exit 1")
	}
	if tl.lat.Snapshot().Count != 1 {
		t.Fatal("only completed requests may record latency")
	}
}

// TestDriveExitCode pins the verdict: shed and expired requests are
// tolerated, a lost request or an empty run is not.
func TestDriveExitCode(t *testing.T) {
	for _, c := range []struct {
		tl   tally
		want int
	}{
		{tally{offered: 9, completed: 5, shed: 2, expired: 2}, 0},
		{tally{offered: 9, completed: 8, failed: 1}, 1},
		{tally{offered: 9, shed: 9}, 1},
	} {
		if got := c.tl.exitCode(); got != c.want {
			t.Errorf("%+v: exit code %d, want %d", c.tl, got, c.want)
		}
	}
}

// TestDriveUpdateFraction replays the seed and checks drive drew exactly
// the same read/update sequence from it.
func TestDriveUpdateFraction(t *testing.T) {
	for _, frac := range []float64{0, 0.25, 1} {
		const seed = 7
		var reads, updates int
		done := func() error { return nil }
		tl := finishes(t, func() tally {
			return drive(10000, 20*time.Millisecond, frac, seed,
				func() func() error { reads++; return done },
				func() func() error { updates++; return done })
		})
		want := 0
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < tl.offered; i++ {
			if rng.Float64() < frac {
				want++
			}
		}
		if updates != want || reads+updates != tl.offered {
			t.Errorf("update-frac %g: %d updates + %d reads of %d offered, want %d updates",
				frac, updates, reads, tl.offered, want)
		}
	}
}

// TestDriveLatencyFromDueTime stalls the arrival loop so that every
// arrival after the first is issued late, in a catch-up burst: the
// recorded latency must include the time each spent waiting behind the
// schedule, even though the requests themselves return at once.
func TestDriveLatencyFromDueTime(t *testing.T) {
	const hold = 40 * time.Millisecond
	n := 0
	next := func() func() error {
		if n++; n == 2 {
			<-time.After(hold) // arrival 1, due at 1ms, is issued at >= 1ms + hold
		}
		return func() error { return nil }
	}
	tl := finishes(t, func() tally { return drive(1000, 10*time.Millisecond, 0, 1, next, next) })
	snap := tl.lat.Snapshot()
	if snap.Max < hold.Seconds() {
		t.Fatalf("max latency %.1fms does not include the %v the arrival waited behind the schedule", snap.Max*1e3, hold)
	}
	if snap.Min >= hold.Seconds() {
		t.Fatalf("min latency %.1fms: arrival 0 was issued on time and returned at once", snap.Min*1e3)
	}
	if tl.offered != 10 || tl.completed != 10 {
		t.Fatalf("offered %d, completed %d, want 10 and 10: a late schedule must still offer everything", tl.offered, tl.completed)
	}
}
