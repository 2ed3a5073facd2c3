package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"tensordimm"
)

// TestVerbFlags parses one invocation per row through the real flag sets:
// each verb accepts its own flags, rejects any other verb's as undefined
// (exit 2, the flag package's own message), and applies its value checks.
func TestVerbFlags(t *testing.T) {
	cases := []struct {
		args    string
		wantErr string // substring of the rejection; "" means accepted
	}{
		{"run", ""},
		{"run -nodes 2 -shard row -cache-mb 1 -zipf 0.9 -update-frac 0.2", ""},
		{"run -batch 65", "-batch 65 exceeds -maxbatch 64"},
		{"run -dim 100", "-dimms 8 does not stripe -dim 100"},
		{"run -zipf -1", "-zipf -1 must not be negative"},
		{"run -listen :1", "flag provided but not defined: -listen"},
		{"run -conns 2", "flag provided but not defined: -conns"},
		{"run extra", "usage: tensorserve run [flags]"},

		{"serve :1 -nodes 2 -cache-mb 1 -data-dir /d -inflight 8", ""},
		{"serve -nodes 2 :1", ""},
		{"serve :1 -rate 5", "flag provided but not defined: -rate"},
		{"serve :1 -shard-id 0", "flag provided but not defined: -shard-id"},
		{"serve :1 -data-dir /d", "-data-dir /d persists hot-row caches"},
		{"serve", "usage: tensorserve serve ADDR [flags]"},

		{"shard :1 -nodes 2 -shard-id 1 -model ncf -rows 64 -dim 128 -maxbatch 32", ""},
		{"shard :1 -nodes 2 -shard-id 2", "-shard-id 2 is out of range"},
		{"shard :1 -cache-mb 1", "flag provided but not defined: -cache-mb"},
		{"shard :1 -data-dir /d", "flag provided but not defined: -data-dir"},

		{"drive :1 -rate 50 -conns 4 -deadline 1s -batch 4", ""},
		{"drive :1 -rows 9", "flag provided but not defined: -rows"},
		{"drive :1 -metrics-addr :2", "flag provided but not defined: -metrics-addr"},
		{"drive :1 -conns 0", "-conns 0 must be at least 1"},
		{"drive :1 -deadline -1s", "-deadline -1s must not be negative"},

		{"route a,b/c,d -model ncf -rows 64 -replicas 2 -shard row", ""},
		{"route a -sticky", ""},
		{"route a -data-dir /d -snapshot-every 64 -update-frac 0.5", ""},
		{"route a -workers 2", "flag provided but not defined: -workers"},
		{"route a -nodes 2", "flag provided but not defined: -nodes"},
		{"route a -dim 0", "-dim 0 must be at least 1"},
		{"route a,b/c -replicas 2", "shard 1's group lists 1 addresses"},
		{"route a,,b", "group \"a,,b\" has an empty address"},
		{"route a -sticky -update-frac 0.1", "-sticky refuses -update-frac"},
		{"route a -sticky -data-dir /d", "-data-dir cannot be combined with -sticky"},

		{"chaos 7 -duration 1s -metrics-addr :2", ""},
		{"chaos 0", "SEED \"0\" must be a non-zero integer"},
		{"chaos 7 -rate 5", "flag provided but not defined: -rate"},

		{"", "missing verb"},
		{"-listen :0", "unknown verb \"-listen\""},
		{"-nodes 2 -shard-id 0", "unknown verb \"-nodes\""},
	}
	for _, c := range cases {
		_, err := parse(strings.Fields(c.args))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("tensorserve %s: rejected with %q, want accepted", c.args, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("tensorserve %s: accepted, want a rejection mentioning %q", c.args, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("tensorserve %s: rejected with %q, want it to mention %q", c.args, err, c.wantErr)
		}
	}
}

// TestUsageLinesParse feeds every "tensorserve ..." usage line of the
// package comment through the real flag sets, so the documentation cannot
// drift from the verbs.
func TestUsageLinesParse(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(src), "\n") {
		cmd, ok := strings.CutPrefix(line, "//\ttensorserve ")
		if !ok {
			continue
		}
		cmd, _, _ = strings.Cut(cmd, " #")
		if _, err := parse(shellWords(cmd)); err != nil {
			t.Errorf("documented %q: %v", "tensorserve "+cmd, err)
		}
		n++
	}
	if n < 10 {
		t.Fatalf("found %d usage lines in the package comment; the scan is broken", n)
	}
}

// shellWords splits a command line on spaces, keeping double-quoted words
// whole (without their quotes).
func shellWords(s string) []string {
	var words []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		end := strings.IndexByte(s, ' ')
		if s[0] == '"' {
			end = strings.IndexByte(s[1:], '"') + 2
		}
		if end < 0 {
			end = len(s)
		}
		words = append(words, strings.Trim(s[:end], `"`))
		s = s[end:]
	}
	return words
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
