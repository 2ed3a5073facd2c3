// Package dimm implements the TensorDIMM module of Section 4.2, Figure 6(b):
// a buffered DIMM whose commodity DRAM rank is kept as-is, with an NMP core
// added inside the buffer device.
//
// The module has two personalities:
//
//   - Normal buffered DIMM: the host's memory controller issues plain 64-byte
//     load/store transactions (ReadBlock/WriteBlock), exactly as a registered
//     or load-reduced DIMM would serve them. This is the paper's requirement
//     that TensorDIMM "be utilized as a normal buffered DIMM device" when not
//     accelerating DL.
//
//   - NMP: TensorISA instructions forwarded by the runtime are decoded by the
//     NMP-local memory controller and executed over the rank-local DRAM
//     (Execute).
//
// Addressing: the node's physical space is striped across TensorDIMMs in
// 64-byte blocks (Figure 7); global block g lives on DIMM g % nodeDim at
// rank-local block g / nodeDim. The module hands its NMP core exactly two
// things (nmp.Env): its own rank's bytes and the replicated index region.
// With no way to name another rank's DRAM, the core is rank-local by
// construction; the global-to-local translation itself happens once per
// operand inside the core, which refuses a base that stripes elsewhere.
//
// The rank store is GC-owned memory. On Linux a store of 2 MiB or more starts
// on a 2 MiB boundary and is advised MADV_HUGEPAGE (store_linux.go), so a
// random gather over it is not paying a TLB miss per 4 KiB page. Float lanes
// in the store and index lanes in the replicated region are host-native: the
// NMP kernels and the node's host I/O use them as they lie, with no decode.
package dimm

import (
	"encoding/binary"
	"fmt"
	"sync"

	"tensordimm/internal/isa"
	"tensordimm/internal/nmp"
)

// SharedCapacityBytes bounds the replicated region's address space: an index
// list that would end past it is refused, so a stray address cannot size the
// slab to the address space.
const SharedCapacityBytes = 1 << 30

// SharedRegion is the node-wide replicated store that holds GATHER index
// lists. The runtime broadcasts index blocks to every buffer device along
// with the instruction (Section 4.4); replicating them is what lets every
// NMP core walk the full index list without touching remote ranks.
//
// The store is one flat byte slab, grown to the highest address written,
// with a written flag per 64-byte block. Run hands a core the bytes of a
// whole index list at once. Writers of disjoint block ranges may run
// concurrently with each other and with readers of other ranges; a range
// must not be written while an instruction that reads it executes.
type SharedRegion struct {
	// mu orders slab growth (exclusive) against writers and readers
	// (shared). A reader keeps using the bytes Run returned after it lets
	// go of the lock: growth copies them, and nobody may write them until
	// the reader's instruction has retired.
	mu      sync.RWMutex
	data    []byte
	written []bool // per block of data
}

// NewSharedRegion returns an empty replicated region.
func NewSharedRegion() *SharedRegion { return &SharedRegion{} }

// WriteIndices stores an index list as host-native int32 lanes starting at
// the given global block address, zero-padding the last block (harmless:
// the instruction's count controls how many indices are consumed).
func (s *SharedRegion) WriteIndices(globalBlock uint64, indices []int32) error {
	blocks := uint64(len(indices)+isa.LanesPerBlock-1) / isa.LanesPerBlock
	const limit = SharedCapacityBytes / isa.BlockBytes
	if globalBlock > limit || blocks > limit-globalBlock {
		return fmt.Errorf("dimm: index list [%#x, +%d blocks) beyond the shared region's %d B", globalBlock, blocks, SharedCapacityBytes)
	}
	lo, hi := globalBlock*isa.BlockBytes, (globalBlock+blocks)*isa.BlockBytes
	s.mu.RLock()
	for hi > uint64(len(s.data)) {
		s.mu.RUnlock()
		s.grow(hi)
		s.mu.RLock()
	}
	defer s.mu.RUnlock()
	dst := s.data[lo:hi]
	for i, v := range indices {
		binary.NativeEndian.PutUint32(dst[i*4:], uint32(v))
	}
	clear(dst[len(indices)*4:])
	for b := globalBlock; b < globalBlock+blocks; b++ {
		s.written[b] = true
	}
	return nil
}

// grow extends the slab to at least size bytes, doubling so that a region
// filled upward reallocates a logarithmic number of times.
func (s *SharedRegion) grow(size uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size <= uint64(len(s.data)) {
		return
	}
	if twice := 2 * uint64(len(s.data)); size < twice {
		size = twice
	}
	data := make([]byte, size)
	copy(data, s.data)
	written := make([]bool, size/isa.BlockBytes)
	copy(written, s.written)
	s.data, s.written = data, written
}

// Run returns the bytes of `blocks` consecutive blocks starting at the global
// block address. A block nobody has written is an error (uninitialized index
// list — always a runtime bug).
func (s *SharedRegion) Run(globalBlock uint64, blocks int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	limit := uint64(len(s.written))
	if globalBlock > limit || uint64(blocks) > limit-globalBlock {
		return nil, fmt.Errorf("dimm: shared blocks [%#x, +%d) not written", globalBlock, blocks)
	}
	end := globalBlock + uint64(blocks)
	for b := globalBlock; b < end; b++ {
		if !s.written[b] {
			return nil, fmt.Errorf("dimm: shared block %#x not written", b)
		}
	}
	return s.data[globalBlock*isa.BlockBytes : end*isa.BlockBytes], nil
}

// Forget marks `blocks` blocks from the global block address as unwritten
// again, so a released index region handed to a new owner reads as
// uninitialized until that owner writes it.
func (s *SharedRegion) Forget(globalBlock, blocks uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for b := globalBlock; b < globalBlock+blocks && b < uint64(len(s.written)); b++ {
		s.written[b] = false
	}
}

// Bytes returns the slab's footprint: the highest address ever written,
// rounded up by the growth policy.
func (s *SharedRegion) Bytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// TensorDIMM is one TensorDIMM module.
type TensorDIMM struct {
	tid     int
	nodeDim int
	store   []byte // rank-local DRAM contents
	shared  *SharedRegion
	core    *nmp.Core
}

// New builds TensorDIMM `tid` of a node with `nodeDim` DIMMs and
// `localBytes` of rank-local DRAM (a multiple of 64).
func New(tid, nodeDim int, localBytes uint64, shared *SharedRegion) (*TensorDIMM, error) {
	if localBytes == 0 || localBytes%isa.BlockBytes != 0 {
		return nil, fmt.Errorf("dimm: localBytes %d must be a positive multiple of %d", localBytes, isa.BlockBytes)
	}
	if shared == nil {
		return nil, fmt.Errorf("dimm: nil shared region")
	}
	d := &TensorDIMM{tid: tid, nodeDim: nodeDim, store: newStore(localBytes), shared: shared}
	core, err := nmp.NewCore(tid, nodeDim, d)
	if err != nil {
		return nil, err
	}
	d.core = core
	return d, nil
}

// TID returns the DIMM's index within its node.
func (d *TensorDIMM) TID() int { return d.tid }

// LocalBytes returns the rank-local capacity.
func (d *TensorDIMM) LocalBytes() uint64 { return uint64(len(d.store)) }

// Core exposes the NMP core (for stats inspection).
func (d *TensorDIMM) Core() *nmp.Core { return d.core }

// Local implements nmp.Env: this module's rank-local DRAM. The node's host
// I/O stripes tensors straight into and out of the same bytes.
func (d *TensorDIMM) Local() []byte { return d.store }

// Shared implements nmp.Env.
func (d *TensorDIMM) Shared(globalBlock uint64, blocks int) ([]byte, error) {
	return d.shared.Run(globalBlock, blocks)
}

// ReadBlock is the normal-DIMM personality: a 64-byte load at a rank-local
// byte offset, as issued by a conventional memory controller.
func (d *TensorDIMM) ReadBlock(localOffset uint64) (nmp.Block, error) {
	if localOffset%isa.BlockBytes != 0 || localOffset > uint64(len(d.store))-isa.BlockBytes {
		return nmp.Block{}, fmt.Errorf("dimm %d: bad local offset %#x", d.tid, localOffset)
	}
	var b nmp.Block
	copy(b[:], d.store[localOffset:localOffset+isa.BlockBytes])
	return b, nil
}

// WriteBlock is the normal-DIMM personality store.
func (d *TensorDIMM) WriteBlock(localOffset uint64, b nmp.Block) error {
	if localOffset%isa.BlockBytes != 0 || localOffset > uint64(len(d.store))-isa.BlockBytes {
		return fmt.Errorf("dimm %d: bad local offset %#x", d.tid, localOffset)
	}
	copy(d.store[localOffset:localOffset+isa.BlockBytes], b[:])
	return nil
}

// Execute runs one broadcast TensorISA instruction on this DIMM's NMP core.
func (d *TensorDIMM) Execute(in isa.Instruction) error {
	return d.core.Execute(in)
}
