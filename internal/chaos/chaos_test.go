package chaos

import (
	"reflect"
	"testing"
	"time"
)

// TestScheduleDeterminism pins the seeded generator: the same seed
// reproduces the exact same schedule, a different seed diverges, no
// event ever targets replica 0, and every victim index is in range.
func TestScheduleDeterminism(t *testing.T) {
	a := genSchedule(42, 6, 2, 3, time.Second)
	b := genSchedule(42, 6, 2, 3, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := genSchedule(43, 6, 2, 3, time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	total := 0
	for r, evs := range a {
		for _, ev := range evs {
			total++
			if ev.rep < 1 || ev.rep >= 3 {
				t.Fatalf("round %d: event %v targets replica %d (replica 0 must never be faulted)", r, ev, ev.rep)
			}
			if ev.shard < 0 || ev.shard >= 2 {
				t.Fatalf("round %d: event %v targets shard %d of 2", r, ev, ev.shard)
			}
			if ev.at < 0 || ev.at > time.Second {
				t.Fatalf("round %d: event %v lands at %v, outside the round", r, ev, ev.at)
			}
		}
	}
	if total < 6*3 {
		t.Fatalf("6 rounds scheduled only %d events, want >= 3 per round", total)
	}
}

// TestChaosSoakFixedSeed runs the full seeded soak against a real
// in-process fleet: randomized faults from a fixed seed, mixed
// update/read/deadline-bounded traffic, bit-identity at every quiescent
// point, and the closing kill-everything durability sweep. CI runs this
// under -race; -short trims the fault phase.
func TestChaosSoakFixedSeed(t *testing.T) {
	dur := 8 * time.Second
	if testing.Short() {
		dur = 3 * time.Second
	}
	rep, err := Run(Config{Seed: 42, Duration: dur, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	if rep.Updates == 0 || rep.Reads == 0 || rep.SkewReads == 0 {
		t.Fatalf("soak drove no traffic on some path: %+v", rep)
	}
	if rep.GoldenChecks == 0 {
		t.Fatalf("soak never bit-checked against golden: %+v", rep)
	}
	if rep.Faults == 0 {
		t.Fatalf("schedule injected no faults: %+v", rep)
	}
	// The final phase cold-restarts the whole fleet, so the durable log
	// must have re-driven at least every replica once.
	if rep.Resyncs == 0 {
		t.Fatalf("kill-everything restart triggered no resyncs: %+v", rep)
	}
}
