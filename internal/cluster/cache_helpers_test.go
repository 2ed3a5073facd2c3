package cluster

import "testing"

// Single-row conveniences over rowCache's batched probe/fill, for the cache
// unit tests. The router never touches the cache one row at a time.

// get probes one row and returns a copy of its payload.
func (c *rowCache) get(row int) ([]float32, bool) {
	dst := make([]float32, c.dim)
	return dst, c.getInto(row, dst)
}

// getInto probes one row, copying its payload into dst on a hit.
func (c *rowCache) getInto(row int, dst []float32) bool {
	var hit [1]bool
	c.probe([]int{row}, hit[:], dst)
	return hit[0]
}

// put inserts one row unconditionally.
func (c *rowCache) put(row int, vec []float32) { c.putAt(row, vec, c.snapshot()) }

// putAt inserts one row unless the version moved since ver.
func (c *rowCache) putAt(row int, vec []float32, ver uint64) { c.fill([]int{row}, vec, ver) }

// clockState returns the resident rows with their reference bits, failing
// the test wherever the slot index, the free stack and the reference bits
// disagree: every slot is either on the free stack, with its bit clear, or
// holds the row the index maps to it, and the hand points at a slot.
func clockState(t testing.TB, c *rowCache) map[int]bool {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	slots := len(c.rowOf)
	if c.hand < 0 || c.hand >= slots {
		t.Fatalf("hand at %d outside %d slots", c.hand, slots)
	}
	isFree := make([]bool, slots)
	for _, slot := range c.free {
		if isFree[slot] {
			t.Fatalf("slot %d is on the free stack twice", slot)
		}
		isFree[slot] = true
		if c.ref[slot].Load() {
			t.Fatalf("free slot %d has its reference bit set", slot)
		}
	}
	state := map[int]bool{}
	for slot := 0; slot < slots; slot++ {
		if isFree[slot] {
			continue
		}
		row := int(c.rowOf[slot])
		if c.slotOf[row] != int32(slot) {
			t.Fatalf("slot %d holds row %d, but the index maps that row to slot %d", slot, row, c.slotOf[row])
		}
		state[row] = c.ref[slot].Load()
	}
	indexed := 0
	for _, slot := range c.slotOf {
		if slot >= 0 {
			indexed++
		}
	}
	if indexed != len(state) {
		t.Fatalf("%d slots in use, the index maps %d rows", len(state), indexed)
	}
	return state
}
