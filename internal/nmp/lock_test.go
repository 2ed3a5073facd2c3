package nmp

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"tensordimm/internal/isa"
)

// lockCore builds a one-DIMM core with a 32-row table at block 0, a
// 16-index list (rows 0..15) in shared block 0, and gradients of 0.5 at
// block 100.
func lockCore(t *testing.T) (*Core, *fakeEnv) {
	t.Helper()
	env := newFakeEnv(0, 1)
	core, err := NewCore(0, 1, env)
	if err != nil {
		t.Fatal(err)
	}
	for r := uint64(0); r < 32; r++ {
		env.put(r, PackFloats([]float32{float32(r)}))
	}
	indices := make([]int32, 16)
	for i := range indices {
		indices[i] = int32(i)
		env.put(100+uint64(i), PackFloats([]float32{0.5}))
	}
	env.putShared(0, PackIndices(indices))
	return core, env
}

// TestReadersShareCore: GATHER, REDUCE and AVERAGE hold the core's lock
// shared, so each retires while another holder — the test — keeps a read
// lock. A reading opcode that takes the lock exclusively blocks until the
// watchdog fires.
func TestReadersShareCore(t *testing.T) {
	core, _ := lockCore(t)
	reads := []isa.Instruction{
		isa.Gather(0, 0, 200, 16),
		isa.Reduce(isa.RAdd, 0, 16, 300, 16),
		isa.Average(0, 2, 400, 16),
	}
	core.mu.RLock()
	defer core.mu.RUnlock()
	for _, in := range reads {
		done := make(chan error, 1)
		go func() { done <- core.Execute(in) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%v: %v", in, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v did not retire within 5 s while another reader held the core", in)
		}
	}
	if got := core.Stats().Instructions; got != uint64(len(reads)) {
		t.Fatalf("Instructions = %d, want %d", got, len(reads))
	}
}

// TestScatterAddExcludesReaders: SCATTER_ADD holds the core's lock alone.
// While the test holds a read lock, it parks on the lock with nothing
// written and nothing counted, and it retires once the lock is released.
func TestScatterAddExcludesReaders(t *testing.T) {
	core, env := lockCore(t)
	core.mu.RLock()
	done := make(chan error, 1)
	go func() { done <- core.Execute(isa.ScatterAdd(0, 0, 100, 16)) }()
	for !parked("sync.(*RWMutex).Lock", "nmp.(*Core).Execute") {
		select {
		case err := <-done:
			core.mu.RUnlock()
			t.Fatalf("SCATTER_ADD returned (err %v) while a reader held the core", err)
		default:
			runtime.Gosched()
		}
	}
	if got := core.Stats().Instructions; got != 0 {
		core.mu.RUnlock()
		t.Fatalf("Instructions = %d while SCATTER_ADD was parked, want 0", got)
	}
	if got := UnpackFloats(env.get(3))[0]; got != 3 {
		core.mu.RUnlock()
		t.Fatalf("row 3 = %v while SCATTER_ADD was parked, want 3", got)
	}
	core.mu.RUnlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := core.Stats().Instructions; got != 1 {
		t.Fatalf("Instructions = %d after release, want 1", got)
	}
	if got := UnpackFloats(env.get(3))[0]; got != 3.5 {
		t.Fatalf("row 3 = %v after release, want 3.5", got)
	}
}

// parked reports whether some goroutine's stack holds both the blocking
// call wait and the caller in.
func parked(wait, in string) bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, wait) && strings.Contains(g, in) {
			return true
		}
	}
	return false
}
