// Package node implements TensorNode (Section 4.3, Figure 6(c)): a
// disaggregated memory pool fully populated with TensorDIMMs, attached as an
// endpoint of the GPU-side system interconnect.
//
// The node provides:
//
//   - striped data movement: tensors written into the pool are interleaved in
//     64-byte blocks across all TensorDIMMs (the address mapping of Figure 7),
//     so every NMP core owns an equal slice of every tensor. Float tensors
//     keep the host's own byte order in the ranks, so host I/O is one
//     64-byte block copy per stripe block, with nothing encoded or decoded;
//
//   - instruction broadcast: one TensorISA instruction is delivered to every
//     buffer device (Section 4.4, "the TensorISA instruction is broadcasted
//     to all the TensorDIMMs"), and each NMP core executes it over its own
//     slice. The emulation runs the cores in turn on the goroutine that
//     issued the program; host parallelism comes from concurrent programs,
//     and the paper's timing of a broadcast, where every core streams its
//     rank at once, is the simulator's (internal/core), not host wall time;
//
//   - a pool memory allocator in the spirit of the remote-memory
//     (de)allocation runtime APIs the paper builds on ([39]): first-fit with
//     stripe-aligned bases and free-block coalescing. A second instance of it
//     hands out (and takes back) address ranges of the replicated region that
//     holds GATHER index lists.
//
// Functional contents are real: data written here and transformed by the NMP
// cores is compared bit-for-bit against the golden model in tests.
package node

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"tensordimm/internal/dimm"
	"tensordimm/internal/isa"
	"tensordimm/internal/nmp"
)

// Config sizes a TensorNode.
type Config struct {
	// DIMMs is the number of TensorDIMMs (Table 1 default: 32).
	DIMMs int
	// PerDIMMBytes is the rank-local capacity of each TensorDIMM
	// (e.g. 128 GiB LR-DIMMs in the paper; far smaller in tests).
	PerDIMMBytes uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.DIMMs <= 0 {
		return fmt.Errorf("node: DIMMs must be positive, got %d", c.DIMMs)
	}
	if c.PerDIMMBytes == 0 || c.PerDIMMBytes%isa.BlockBytes != 0 {
		return fmt.Errorf("node: PerDIMMBytes %d must be a positive multiple of %d", c.PerDIMMBytes, isa.BlockBytes)
	}
	return nil
}

// Node is a TensorNode instance.
type Node struct {
	cfg    Config
	dimms  []*dimm.TensorDIMM
	shared *dimm.SharedRegion

	mu    sync.Mutex
	pool  spanAlloc // the striped DRAM pool, stripe-aligned
	index spanAlloc // the shared region's address space, block-aligned

	// The node owns no goroutines: Execute runs every DIMM's NMP core on
	// the caller's goroutine, so closing only refuses further programs.
	closed atomic.Bool
}

// span is a free region [base, base+size) in bytes.
type span struct {
	base, size uint64
}

// spanAlloc is a first-fit allocator over a byte address space: bases and
// sizes are multiples of align, the free list is sorted by base, and
// adjacent free spans coalesce. The node runs two — the DRAM pool and the
// shared index region's address space — both under Node.mu.
type spanAlloc struct {
	align  uint64
	free   []span
	allocs map[uint64]uint64 // base -> size
}

func newSpanAlloc(capacity, align uint64) spanAlloc {
	return spanAlloc{align: align, free: []span{{base: 0, size: capacity}}, allocs: make(map[uint64]uint64)}
}

// New builds a TensorNode.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shared := dimm.NewSharedRegion()
	n := &Node{cfg: cfg, shared: shared}
	for tid := 0; tid < cfg.DIMMs; tid++ {
		d, err := dimm.New(tid, cfg.DIMMs, cfg.PerDIMMBytes, shared)
		if err != nil {
			return nil, err
		}
		n.dimms = append(n.dimms, d)
	}
	n.pool = newSpanAlloc(n.CapacityBytes(), n.StripeBytes())
	// The index address space is far larger than the store behind it
	// (dimm.SharedCapacityBytes, enforced when a list is loaded), so a
	// reservation itself never fails.
	n.index = newSpanAlloc(1<<62, isa.BlockBytes)
	return n, nil
}

// Close marks the node closed: Execute after Close returns an error, and an
// Execute already past that check runs to completion. It is idempotent and
// releases nothing — the node holds no goroutines, and its rank stores
// belong to the garbage collector — so a node that lives for the process
// lifetime can skip it.
func (n *Node) Close() {
	n.closed.Store(true)
}

// NodeDim returns the number of TensorDIMMs.
func (n *Node) NodeDim() int { return n.cfg.DIMMs }

// CapacityBytes returns the pool capacity.
func (n *Node) CapacityBytes() uint64 {
	return uint64(n.cfg.DIMMs) * n.cfg.PerDIMMBytes
}

// StripeBytes returns the striping granularity: one 64-byte block per DIMM.
func (n *Node) StripeBytes() uint64 {
	return uint64(n.cfg.DIMMs) * isa.BlockBytes
}

// DIMM returns TensorDIMM tid (for stats inspection and tests).
func (n *Node) DIMM(tid int) *dimm.TensorDIMM { return n.dimms[tid] }

// stripeCursor walks the rank-local 64-byte blocks that a linear range of
// the pool stripes to (Figure 7): consecutive global blocks visit the DIMMs
// round-robin, moving one local block down after each full stripe.
type stripeCursor struct {
	dimms []*dimm.TensorDIMM
	tid   int
	off   uint64 // local byte offset of the next block on DIMM tid
}

// next returns the cursor's block and advances it.
func (c *stripeCursor) next() *nmp.Block {
	b := (*nmp.Block)(c.dimms[c.tid].Local()[c.off:])
	if c.tid++; c.tid == len(c.dimms) {
		c.tid, c.off = 0, c.off+isa.BlockBytes
	}
	return b
}

// stripe validates one host transfer — base 64 B aligned, nBytes rounded up
// to whole blocks within capacity — once, and returns a cursor over its
// blocks. Every host read and write goes through it.
func (n *Node) stripe(op string, base uint64, nBytes int) (stripeCursor, error) {
	if base%isa.BlockBytes != 0 {
		return stripeCursor{}, fmt.Errorf("node: %s base %#x not 64 B aligned", op, base)
	}
	padded := (uint64(nBytes) + isa.BlockBytes - 1) / isa.BlockBytes * isa.BlockBytes
	if base > n.CapacityBytes() || padded > n.CapacityBytes()-base {
		return stripeCursor{}, fmt.Errorf("node: %s [%#x, +%d) beyond capacity %d", op, base, nBytes, n.CapacityBytes())
	}
	gb, dim := base/isa.BlockBytes, uint64(len(n.dimms))
	return stripeCursor{dimms: n.dimms, tid: int(gb % dim), off: gb / dim * isa.BlockBytes}, nil
}

// Write stores bytes into the pool at a 64-byte-aligned byte address,
// striping blocks across DIMMs. Partial trailing blocks are zero-padded.
// This is the functional equivalent of a GPU->TensorNode cudaMemcpy.
func (n *Node) Write(base uint64, data []byte) error {
	cur, err := n.stripe("write", base, len(data))
	if err != nil {
		return err
	}
	for len(data) > 0 {
		b := cur.next()
		k := copy(b[:], data)
		clear(b[k:])
		data = data[k:]
	}
	return nil
}

// Read fetches len(out) bytes from the pool at a 64-byte-aligned address.
// This is the functional equivalent of a TensorNode->GPU cudaMemcpy.
func (n *Node) Read(base uint64, out []byte) error {
	cur, err := n.stripe("read", base, len(out))
	if err != nil {
		return err
	}
	for len(out) > 0 {
		out = out[copy(out, cur.next()[:]):]
	}
	return nil
}

// WriteFloats stores a float32 slice at base in the rank's host-native
// layout. The trailing partial block, if any, is zero-padded, and the write
// performs no heap allocations: the floats' bytes are block-copied straight
// into the DIMMs' rank-local bytes.
func (n *Node) WriteFloats(base uint64, vals []float32) error {
	return n.Write(base, floatBytes(vals))
}

// ReadFloats fetches count float32 values from base.
func (n *Node) ReadFloats(base uint64, count int) ([]float32, error) {
	out := make([]float32, count)
	if err := n.ReadFloatsInto(base, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFloatsInto fetches len(out) float32 values from base into the
// caller's buffer, block-copying each stripe block of the DIMMs' rank-local
// bytes into the buffer's own bytes, so the steady-state read-back path
// performs no heap allocations. base must be 64 B aligned.
func (n *Node) ReadFloatsInto(base uint64, out []float32) error {
	return n.Read(base, floatBytes(out))
}

// floatBytes views floats as their bytes. Rank bytes are host-native, so
// copying these is the whole encoding.
func floatBytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// LoadIndices replicates a GATHER index list into the shared region at the
// given 64-byte-aligned byte address. Indices are padded to a whole block
// with zeros (harmless: GATHER count controls how many are consumed).
func (n *Node) LoadIndices(base uint64, indices []int32) error {
	if base%isa.BlockBytes != 0 {
		return fmt.Errorf("node: index base %#x not 64 B aligned", base)
	}
	return n.shared.WriteIndices(base/isa.BlockBytes, indices)
}

// Execute broadcasts each instruction of the program to every TensorDIMM,
// one instruction at a time (instructions within a program are dependent;
// DIMMs within an instruction are not). The NMP cores run in turn, DIMM 0
// first, on the caller's goroutine. Every DIMM executes the instruction even
// when an earlier one faulted; the program then stops, and the error names
// the lowest-numbered failing DIMM.
//
// Execute is safe to call concurrently with other Execute, Read and Write
// calls as long as the programs write disjoint pool regions. On each core,
// GATHER, REDUCE and AVERAGE of concurrent programs run at once (they hold
// the core's lock shared), and a SCATTER_ADD runs alone, so a program that
// reads a table another program scatter-adds into sees each of the core's
// 64-byte blocks wholly before or wholly after each update. The runtime's
// per-lane and per-slot scratch partitioning guarantees disjoint outputs
// for concurrent inference batches.
func (n *Node) Execute(p isa.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if n.closed.Load() {
		return fmt.Errorf("node: node is closed")
	}
	// Instruction fields are in 64-byte blocks; convert byte->block
	// addressing is the caller's job.
	for i, in := range p {
		var first error
		failed := 0
		for tid, d := range n.dimms {
			if err := d.Execute(in); err != nil && first == nil {
				first, failed = err, tid
			}
		}
		if first != nil {
			return fmt.Errorf("node: instruction %d (%v) on DIMM %d: %w", i, in, failed, first)
		}
	}
	return nil
}

// ReserveIndexRegion hands out a block-aligned byte address range of the
// replicated shared region (the store LoadIndices writes to). Concurrent
// writers of the shared region — deployments, scratch lanes — reserve
// disjoint regions so their index lists cannot collide. The store behind a
// region is materialized on first write; ReleaseIndexRegion returns the
// range for reuse, so a node that deploys and releases models for as long as
// it lives keeps a flat footprint.
func (n *Node) ReserveIndexRegion(bytes uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	base, _ := n.index.alloc(max(bytes, 1)) // cannot fail: see New
	return base
}

// ReleaseIndexRegion returns a region handed out by ReserveIndexRegion. Its
// index blocks read as unwritten again, so the next owner of the addresses
// cannot execute over a stale list. No instruction that reads the region
// may be in flight.
func (n *Node) ReleaseIndexRegion(base uint64) error {
	n.mu.Lock()
	size, ok := n.index.release(base)
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("node: ReleaseIndexRegion(%#x): not a reserved region base", base)
	}
	n.shared.Forget(base/isa.BlockBytes, size/isa.BlockBytes)
	return nil
}

// IndexRegionBytes returns the footprint of the store behind the shared
// index region: the highest address any index list was loaded at.
func (n *Node) IndexRegionBytes() int { return n.shared.Bytes() }

// Alloc reserves size bytes in the pool, returning a stripe-aligned base so
// tensors always stripe cleanly across all DIMMs. First-fit.
func (n *Node) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("node: zero-size allocation")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	base, ok := n.pool.alloc(size)
	if !ok {
		return 0, fmt.Errorf("node: out of pool memory (%d bytes requested)", size)
	}
	return base, nil
}

// Free releases an allocation made by Alloc, coalescing adjacent free spans.
func (n *Node) Free(base uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.pool.release(base); !ok {
		return fmt.Errorf("node: Free(%#x): not an allocation base", base)
	}
	return nil
}

// alloc carves size bytes, rounded up to the alignment, out of the first
// free span that fits.
func (a *spanAlloc) alloc(size uint64) (uint64, bool) {
	size = (size + a.align - 1) / a.align * a.align
	for i, s := range a.free {
		// Align the candidate base within the span.
		base := (s.base + a.align - 1) / a.align * a.align
		pad := base - s.base
		if s.size < pad+size {
			continue
		}
		// Carve [base, base+size) out of the span.
		if pad > 0 {
			a.free[i] = span{base: s.base, size: pad}
			rest := s.size - pad - size
			if rest > 0 {
				a.free = insertSpan(a.free, i+1, span{base: base + size, size: rest})
			}
		} else {
			rest := s.size - size
			if rest > 0 {
				a.free[i] = span{base: base + size, size: rest}
			} else {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
		}
		a.allocs[base] = size
		return base, true
	}
	return 0, false
}

// release returns the allocation at base to the free list, coalescing it
// with its neighbours, and reports its size.
func (a *spanAlloc) release(base uint64) (uint64, bool) {
	size, ok := a.allocs[base]
	if !ok {
		return 0, false
	}
	delete(a.allocs, base)
	// Insert sorted.
	i := 0
	for i < len(a.free) && a.free[i].base < base {
		i++
	}
	a.free = insertSpan(a.free, i, span{base: base, size: size})
	// Coalesce with neighbours.
	if i+1 < len(a.free) && a.free[i].base+a.free[i].size == a.free[i+1].base {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].base+a.free[i-1].size == a.free[i].base {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return size, true
}

// FreeBytes returns the total unallocated pool capacity.
func (n *Node) FreeBytes() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total uint64
	for _, s := range n.pool.free {
		total += s.size
	}
	return total
}

// AllocCount returns the number of live allocations.
func (n *Node) AllocCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pool.allocs)
}

// Stats aggregates NMP datapath counters across all DIMMs.
func (n *Node) Stats() nmp.Stats {
	var total nmp.Stats
	for _, d := range n.dimms {
		s := d.Core().Stats()
		total.BlocksRead += s.BlocksRead
		total.BlocksWritten += s.BlocksWritten
		total.SharedReads += s.SharedReads
		total.ALUBlockOps += s.ALUBlockOps
		total.Instructions += s.Instructions
	}
	return total
}

func insertSpan(spans []span, i int, s span) []span {
	spans = append(spans, span{})
	copy(spans[i+1:], spans[i:])
	spans[i] = s
	return spans
}
