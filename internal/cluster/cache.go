package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
)

// rowCache is a byte-capacity-bounded LRU of hot embedding rows fronting
// one shard, keyed by flat local row. RecNMP (Ke et al., 2020) observes
// that production embedding traffic is heavily skewed, which makes a small
// cache disproportionately effective: a hit serves the row from the
// router's memory and skips the shard's near-memory gather path entirely —
// no sub-request row, no interconnect transfer.
//
// Storage is flat and sized once, at construction: a slab of
// min(capBytes/rowBytes, localRows) row payloads, a direct flat row -> slot
// index, and an intrusive doubly linked LRU ring over the slots closed by a
// sentinel. Nothing is allocated afterwards — a probe is two array reads, a
// promotion six int32 stores, an eviction recycles the least recently used
// slot in place. Capacity accounting charges the row payload only (dim x 4
// bytes per resident row); the index and the ring are not counted against
// the budget.
//
// Locking is per request, not per row. The router hands a shard's cache
// every lookup one read routed to it in a single probe call and every row
// the read then gathered in a single fill call, so a read takes the lock
// at most twice per shard however many rows it touches. All methods are
// safe for concurrent use; hit and miss counts are atomic counters, so
// reports can read them without taking the lock.
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
	mu       sync.Mutex
	dim      int
	rowBytes int64
	used     int64  // resident rows x rowBytes, guarded by mu
	version  uint64 // bumped by every invalidate, guarded by mu

	// All guarded by mu. Slot i's payload is slab[i*dim:(i+1)*dim] and its
	// flat row is rowOf[i]; slotOf is the inverse, -1 for a row that is not
	// resident. prev/next link the resident slots into a ring through the
	// sentinel at index len(rowOf): next[sentinel] is the most recently
	// used slot, prev[sentinel] the least. free stacks the unused slots.
	slab       []float32
	slotOf     []int32
	rowOf      []int32
	prev, next []int32
	free       []int32
	// heat counts lifetime probes per flat local row (hits and misses
	// alike — a probe is the demand signal, residency is incidental),
	// guarded by mu. hotRows ranks it so a warm restart can repopulate the
	// cache with the Zipf head instead of waiting for traffic to refill it.
	heat []uint32

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
		dim:      dim,
		rowBytes: rowBytes,
		slab:     make([]float32, slots*dim),
		slotOf:   make([]int32, localRows),
		rowOf:    make([]int32, slots),
		prev:     make([]int32, slots+1),
		next:     make([]int32, slots+1),
		free:     make([]int32, slots),
		heat:     make([]uint32, localRows),
	}
	for r := range c.slotOf {
		c.slotOf[r] = -1
	}
	// Popped from the top, so slots fill the slab front to back.
	for i := range c.free {
		c.free[i] = int32(slots - 1 - i)
	}
	c.prev[slots], c.next[slots] = int32(slots), int32(slots)
	return c
}

// unlink takes a resident slot out of the LRU ring.
func (c *rowCache) unlink(slot int32) {
	p, n := c.prev[slot], c.next[slot]
	c.next[p], c.prev[n] = n, p
}

// pushFront links a slot into the ring as the most recently used.
func (c *rowCache) pushFront(slot int32) {
	sentinel := int32(len(c.rowOf))
	first := c.next[sentinel]
	c.prev[slot], c.next[slot] = sentinel, first
	c.next[sentinel], c.prev[first] = slot, slot
}

// promote makes a resident slot the most recently used.
func (c *rowCache) promote(slot int32) {
	c.unlink(slot)
	c.pushFront(slot)
}

// remove evicts a resident slot: out of the ring, out of the index, onto
// the free stack.
func (c *rowCache) remove(slot int32) {
	c.unlink(slot)
	c.slotOf[c.rowOf[slot]] = -1
	c.free = append(c.free, slot)
	c.used -= c.rowBytes
}

// probe looks up one read's lookups on this shard — rows, in request
// order, duplicates included — under a single lock hold. Every probe counts
// toward the row's heat. A hit promotes the row to most recently used, sets
// hit[i] and copies the payload into the next dim floats of dst, so the
// k-th hit lands at dst[k*dim:]; the copy happens under the lock, so the
// caller owns a stable snapshot without ever holding cache storage. probe
// returns the version the whole batch was served at, which the caller
// passes to fill with whatever it gathers for the misses.
func (c *rowCache) probe(rows []int, hit []bool, dst []float32) uint64 {
	dim, hits := c.dim, 0
	c.mu.Lock()
	for i, row := range rows {
		c.heat[row]++
		slot := c.slotOf[row]
		hit[i] = slot >= 0
		if slot < 0 {
			continue
		}
		c.promote(slot)
		copy(dst[hits*dim:(hits+1)*dim], c.slab[int(slot)*dim:])
		hits++
	}
	ver := c.version
	c.mu.Unlock()
	c.hits.Add(uint64(hits))
	c.misses.Add(uint64(len(rows) - hits))
	return ver
}

// snapshot returns the cache's current version for a later fill. A caller
// that gathers without probing first (WarmCache) takes it before starting
// the gather whose rows it intends to cache.
func (c *rowCache) snapshot() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// fill inserts a private copy of each gathered row — rows[j]'s payload is
// vecs[j*dim:(j+1)*dim] — under a single lock hold, in order, evicting
// least recently used rows whenever the byte budget is full. Re-inserting
// a resident row only refreshes its recency. The whole batch is
// conditioned on the version still matching ver: if any invalidation
// happened since the caller's probe (or snapshot), the rows may predate an
// update and none is inserted. It returns how many rows were inserted or
// refreshed.
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
			c.promote(slot)
			continue
		}
		if len(c.free) == 0 {
			c.remove(c.prev[len(c.rowOf)])
		}
		slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		copy(c.slab[int(slot)*dim:(int(slot)+1)*dim], vecs[j*dim:])
		c.slotOf[row], c.rowOf[slot] = slot, int32(row)
		c.pushFront(slot)
		c.used += c.rowBytes
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
			c.remove(slot)
			n++
		}
	}
	c.invalidations.Add(uint64(n))
	return n
}

// hotRows returns up to k flat local rows ranked by lifetime probe count,
// hottest first, skipping rows never probed. A cold path (drain-time
// persistence), so the copy-then-sort is fine.
func (c *rowCache) hotRows(k int) []int {
	c.mu.Lock()
	heat := make([]uint32, len(c.heat))
	copy(heat, c.heat)
	c.mu.Unlock()
	idx := make([]int, 0, len(heat))
	for r, h := range heat {
		if h > 0 {
			idx = append(idx, r)
		}
	}
	sort.Slice(idx, func(i, j int) bool {
		if heat[idx[i]] != heat[idx[j]] {
			return heat[idx[i]] > heat[idx[j]]
		}
		return idx[i] < idx[j] // deterministic tie-break
	})
	if k < len(idx) {
		idx = idx[:k]
	}
	return idx
}

// len returns the number of resident rows.
func (c *rowCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rowOf) - len(c.free)
}
