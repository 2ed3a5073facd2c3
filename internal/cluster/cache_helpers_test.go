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

// lruRows walks the LRU ring and returns the resident rows, most recently
// used first, failing the test wherever the ring, the slot index and the
// free stack disagree.
func lruRows(t testing.TB, c *rowCache) []int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	slots := len(c.rowOf)
	var rows []int
	for slot := c.next[slots]; int(slot) != slots; slot = c.next[slot] {
		if len(rows) == slots {
			t.Fatalf("LRU ring does not close after %d slots", slots)
		}
		row := int(c.rowOf[slot])
		if c.slotOf[row] != slot {
			t.Fatalf("ring slot %d holds row %d, but the index maps that row to slot %d", slot, row, c.slotOf[row])
		}
		if c.prev[c.next[slot]] != slot {
			t.Fatalf("ring broken at slot %d: next %d points back at %d", slot, c.next[slot], c.prev[c.next[slot]])
		}
		rows = append(rows, row)
	}
	indexed := 0
	for _, slot := range c.slotOf {
		if slot >= 0 {
			indexed++
		}
	}
	if indexed != len(rows) || slots-len(c.free) != len(rows) {
		t.Fatalf("ring holds %d rows; index %d, slots in use %d of %d",
			len(rows), indexed, slots-len(c.free), slots)
	}
	return rows
}
