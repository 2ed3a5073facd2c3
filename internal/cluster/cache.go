package cluster

import (
	"sync"
	"sync/atomic"
)

// rowCache is a byte-capacity-bounded CLOCK (second chance) cache of hot
// embedding rows fronting one shard, keyed by flat local row. RecNMP (Ke
// et al., 2020) observes that production embedding traffic is heavily
// skewed, which makes a small cache disproportionately effective: a hit
// serves the row from the router's memory and skips the shard's
// near-memory gather path entirely — no sub-request row, no interconnect
// transfer.
//
// Storage is flat and sized once, at construction: a slab of
// min(capBytes/rowBytes, localRows) row payloads, a direct flat row -> slot
// index, one reference bit per slot and a free-slot stack. Nothing is
// allocated afterwards — a probe is two array reads and, for a hit, at most
// one store of a reference bit that was clear; an eviction sweeps the clock
// hand over the slots, clearing set bits, and recycles the first slot whose
// bit was already clear. Capacity accounting charges the row payload only
// (dim x 4 bytes per resident row); the index and the bits are not counted
// against the budget.
//
// Locking is per request, not per row, and probes share it. The router
// hands a shard's cache every lookup one read routed to it in a single
// probe call and every row the read then gathered in a single fill call,
// so a read takes the lock at most twice per shard however many rows it
// touches. probe (like snapshot and len) holds the read lock and writes
// nothing the lock guards — the reference bit is atomic and set only when
// clear, so a hot row's bit is a read-only line after its first hit — and
// concurrent probes never exclude each other. fill and invalidate hold the
// write lock. Hit and miss counts are atomic counters, so reports can read
// them without taking the lock.
//
// Coherence. Online updates mutate shard tables underneath the cache, so
// the cache carries a version counter: invalidate removes the updated rows
// and bumps the version atomically, probe returns the version it ran at,
// and fill drops its whole batch when that version has moved. A reader
// that gathered a row before an update therefore can never park the stale
// value in the cache after the update's invalidation pass — without the
// version check the read-gather / update-invalidate / read-fill
// interleaving would cache pre-update data forever.
//
// Memory discipline. probe copies each hit into a caller-provided buffer
// under the lock and fill copies each payload into the slab, so no caller
// ever holds a reference into cache storage.
type rowCache struct {
	mu      sync.RWMutex
	dim     int
	version uint64 // bumped by every invalidate, guarded by mu

	// Guarded by mu. Slot i's payload is slab[i*dim:(i+1)*dim] and its flat
	// row is rowOf[i]; slotOf is the inverse, -1 for a row that is not
	// resident. free stacks the unused slots, and hand is the slot the next
	// eviction sweep starts at. ref[i] is slot i's reference bit: set by a
	// hit under the read lock, cleared under the write lock by the sweep and
	// when invalidate frees the slot, so every slot fill takes is clear.
	slab   []float32
	slotOf []int32
	rowOf  []int32
	ref    []atomic.Bool
	free   []int32
	hand   int

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

// newRowCache builds a cache of at most capBytes of dim-wide rows
// fronting a flat local table of localRows rows. It returns nil when
// capBytes is too small to hold even one row, which callers treat as
// "cache disabled".
func newRowCache(capBytes int64, dim, localRows int) *rowCache {
	rowBytes := int64(dim) * 4
	if capBytes < rowBytes {
		return nil
	}
	slots := int(min(capBytes/rowBytes, int64(localRows)))
	c := &rowCache{
		dim:    dim,
		slab:   make([]float32, slots*dim),
		slotOf: make([]int32, localRows),
		rowOf:  make([]int32, slots),
		ref:    make([]atomic.Bool, slots),
		free:   make([]int32, slots),
	}
	for r := range c.slotOf {
		c.slotOf[r] = -1
	}
	// Popped from the top, so slots fill the slab front to back.
	for i := range c.free {
		c.free[i] = int32(slots - 1 - i)
	}
	return c
}

// probe looks up one read's lookups on this shard — rows, in request
// order, duplicates included — under a single read-lock hold. A hit sets
// the slot's reference bit if it is clear, sets hit[i] and copies the
// payload into the next dim floats of dst, so the k-th hit lands at
// dst[k*dim:]; the copy happens under the lock, so the caller owns a
// stable snapshot without ever holding cache storage. probe returns the
// version the whole batch was served at, which the caller passes to fill
// with whatever it gathers for the misses. A counter whose share of the
// batch is zero is not written, so an all-hit probe makes one shared atomic
// write, not two.
func (c *rowCache) probe(rows []int, hit []bool, dst []float32) uint64 {
	dim, hits := c.dim, 0
	c.mu.RLock()
	for i, row := range rows {
		slot := c.slotOf[row]
		hit[i] = slot >= 0
		if slot < 0 {
			continue
		}
		if ref := &c.ref[slot]; !ref.Load() {
			ref.Store(true)
		}
		copy(dst[hits*dim:(hits+1)*dim], c.slab[int(slot)*dim:])
		hits++
	}
	ver := c.version
	c.mu.RUnlock()
	if hits > 0 {
		c.hits.Add(uint64(hits))
	}
	if misses := len(rows) - hits; misses > 0 {
		c.misses.Add(uint64(misses))
	}
	return ver
}

// snapshot returns the cache's current version for a later fill. A caller
// that gathers without probing first (WarmCache) takes it before starting
// the gather whose rows it intends to cache.
func (c *rowCache) snapshot() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// fill inserts a private copy of each gathered row — rows[j]'s payload is
// vecs[j*dim:(j+1)*dim] — under a single lock hold, in order. A row goes
// into a free slot while there is one; otherwise the hand sweeps forward,
// clearing each set reference bit it passes, and the row replaces the
// first slot whose bit was already clear. An inserted row starts with its
// bit clear and the hand just past it. Re-inserting a resident row only
// sets its reference bit. The whole batch is conditioned on the version
// still matching ver: if any invalidation happened since the caller's
// probe (or snapshot), the rows may predate an update and none is
// inserted. It returns how many rows were inserted or referenced.
func (c *rowCache) fill(rows []int, vecs []float32, ver uint64) int {
	dim := c.dim
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.version != ver {
		return 0
	}
	for j, row := range rows {
		slot := c.slotOf[row]
		if slot >= 0 {
			c.ref[slot].Store(true)
			continue
		}
		if n := len(c.free); n > 0 {
			slot = c.free[n-1]
			c.free = c.free[:n-1]
		} else {
			for c.ref[c.hand].Load() {
				c.ref[c.hand].Store(false)
				c.hand = (c.hand + 1) % len(c.rowOf)
			}
			slot = int32(c.hand)
			c.hand = (c.hand + 1) % len(c.rowOf)
			c.slotOf[c.rowOf[slot]] = -1
		}
		copy(c.slab[int(slot)*dim:(int(slot)+1)*dim], vecs[j*dim:])
		c.slotOf[row], c.rowOf[slot] = slot, int32(row)
	}
	return len(rows)
}

// invalidate removes the given flat rows (if resident) and bumps the cache
// version so every in-flight fill probed before this call is dropped. It
// returns how many resident rows were actually removed; the count is also
// added to the invalidations counter.
func (c *rowCache) invalidate(rows []int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version++
	n := 0
	for _, row := range rows {
		if slot := c.slotOf[row]; slot >= 0 {
			c.slotOf[row] = -1
			c.ref[slot].Store(false)
			c.free = append(c.free, slot)
			n++
		}
	}
	c.invalidations.Add(uint64(n))
	return n
}

// hotRows returns up to k resident flat local rows: those whose reference
// bit is set first, then the rest, each group in slot order. That is the
// set a warm restart reinstalls, so the cache comes back holding what it
// held.
func (c *rowCache) hotRows(k int) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rows := make([]int, 0, min(k, len(c.rowOf)-len(c.free)))
	for _, referenced := range [2]bool{true, false} {
		for slot, row := range c.rowOf {
			if len(rows) == k {
				return rows
			}
			if c.slotOf[row] == int32(slot) && c.ref[slot].Load() == referenced {
				rows = append(rows, int(row))
			}
		}
	}
	return rows
}

// len returns the number of resident rows.
func (c *rowCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rowOf) - len(c.free)
}
