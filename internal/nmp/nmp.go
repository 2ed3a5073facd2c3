// Package nmp implements the near-memory-processing core that TensorDIMM
// places inside the buffer device of each DIMM (Section 4.2, Figure 6(a)).
//
// The hardware core consists of:
//
//   - an NMP-local memory controller: the FSM that lowers one TensorISA
//     instruction into a stream of rank-local 64-byte block reads and writes
//     (the DRAM-command-level cost of that stream is measured separately by
//     internal/dram);
//
//   - input SRAM queues A and B and an output queue C, each sized to the
//     bandwidth-delay product of the memory (25.6 GB/s x 20 ns = 512 B = 8
//     blocks, Section 4.2 "Implementation and overhead");
//
//   - a 16-lane float32 vector ALU clocked at 150 MHz that pops operand
//     pairs from the input queues and pushes results to the output queue.
//
// What runs here is one bulk kernel per opcode. A kernel resolves its
// operands once per instruction into slices of the DIMM's rank-local bytes
// (Env.Local), streams them — GATHER coalesces consecutive stripe indices
// into one copy, window by window, first touching the rows of the next
// window so their misses overlap; REDUCE, AVERAGE and SCATTER_ADD switch on
// their operator once and run one flat loop over []float32 views of whole
// operand runs — and adds the block, index-read, ALU and queue-occupancy
// counts the FSM would have produced arithmetically. GATHER's touches move
// no data and count nothing in Stats: built for amd64 without the race
// detector (`amd64 && !race`), they are PREFETCHT0 instructions
// (alu_amd64.s), which retire without waiting for their lines; elsewhere,
// and under the race detector, plain one-byte loads (touchLoop), so the
// detector sees every table read. Rank bytes are host-native (float32 and
// int32 lanes in the machine's own byte order), so a view is the data, with
// nothing to decode; the wire and on-disk formats, not the rank, fix a
// byte order. The block-at-a-time FSM of Figure 9, queues and forward path
// included, lives on in this package's tests as the reference model every
// kernel is differentially fuzzed against (FuzzNMPBulkVsReference); nothing
// outside the tests can reach it.
//
// The add that REDUCE.add and SCATTER_ADD's accumulate run works as the
// hardware's ALU does, one 64-byte block of 16 lanes at a time: on amd64 it
// is an SSE2 kernel (alu_amd64.s, built when the race detector is off);
// elsewhere, and under the race detector, the same entry point (aluAdd) runs
// the portable lane-at-a-time loop of alu.go, and TestALUKernelsBitExact
// holds the two to identical bits. The other operators and AVERAGE are
// plain loops on every platform.
//
// Execution is functionally exact: the same arithmetic, in the same order,
// that the paper's pseudo code (Figure 9) prescribes, over real data, so
// results can be compared bit-for-bit against the golden model in
// internal/embed.
//
// Concurrent programs share a core. The instructions that only read tables
// — GATHER, REDUCE and AVERAGE, which write nothing but their own program's
// output tensor — hold the core's lock shared and run side by side;
// SCATTER_ADD, the one instruction that writes a table other programs read,
// holds it alone. The hardware's single FSM streams one instruction at a
// time, but the paper's timing of that stream is the simulator's
// (internal/core), so serializing host execution per core would buy no
// fidelity, only lost host parallelism.
package nmp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"tensordimm/internal/isa"
)

// Block is one 64-byte DRAM burst: 16 float32 lanes.
type Block [isa.BlockBytes]byte

// QueueBlocks is the capacity of each SRAM queue in 64-byte blocks:
// 25.6 GB/s x 20 ns = 512 B (Section 4.2).
const QueueBlocks = 8

// ALUClockHz is the vector ALU clock (Section 4.2).
const ALUClockHz = 150e6

// ALULanes is the vector width: sixteen 4-byte scalar elements per block.
const ALULanes = isa.LanesPerBlock

// Env is the memory a buffer device exposes to its NMP core. It has no way
// to name another DIMM's DRAM, so rank-locality — an NMP core only touches
// its own rank, which is what makes aggregate bandwidth scale (Section 4.2)
// — holds by construction.
type Env interface {
	// Local returns this DIMM's rank-local DRAM, and nothing else: local
	// block b occupies bytes [64b, 64b+64). The node stripes global block g
	// to DIMM g % nodeDim at local block g / nodeDim (Figure 7).
	Local() []byte
	// Shared returns `blocks` consecutive 64-byte blocks, starting at the
	// global block address, of the node-wide replicated region that holds
	// GATHER index lists (broadcast alongside the instruction). A block
	// nobody has written is an error.
	Shared(globalBlock uint64, blocks int) ([]byte, error)
}

// Stats counts datapath activity for one core.
type Stats struct {
	BlocksRead    uint64 // rank-local DRAM blocks read
	BlocksWritten uint64 // rank-local DRAM blocks written
	SharedReads   uint64 // index blocks read from the replicated region
	ALUBlockOps   uint64 // vector-ALU block operations executed
	Instructions  uint64 // TensorISA instructions retired
}

// ALUBusySeconds returns the time the 16-wide 150 MHz ALU was busy: one
// block operation per cycle.
func (s Stats) ALUBusySeconds() float64 { return float64(s.ALUBlockOps) / ALUClockHz }

// Core is one NMP core, bound to TensorDIMM `TID` of a node with `NodeDim`
// TensorDIMMs.
//
// The hardware core streams one instruction at a time: a single FSM in the
// buffer device drives the SRAM queues and the vector ALU. The emulation
// keeps only the ordering that is visible in memory. A SCATTER_ADD holds
// the core's lock exclusively, so a concurrent read of its table sees each
// of the core's 64-byte blocks either wholly before or wholly after the
// update; GATHER, REDUCE and AVERAGE hold it shared and run concurrently
// with one another, which is safe as long as concurrent programs write
// disjoint pool regions (the runtime's per-lane and per-slot scratch).
// Different cores share nothing and run fully in parallel.
type Core struct {
	TID     int
	NodeDim int
	env     Env

	// mu is held shared by the reading opcodes and exclusively by
	// SCATTER_ADD (see Execute). It guards the rank's bytes, not the
	// counters: those are atomics, added once per retired instruction.
	mu    sync.RWMutex
	stats counters
	// stagedB records that an instruction staged operands through queue B
	// (REDUCE, SCATTER_ADD). The FSM pops every block it pushes before it
	// fetches the next, so each queue an opcode stages through peaks at one
	// block: A and C after any instruction, B after one of those.
	stagedB atomic.Bool
	// touched sinks the plain loads of GATHER's touch-ahead where it runs
	// touchLoop (not on amd64, or under the race detector; see touch), one
	// store per window; its value means nothing. The amd64 build prefetches
	// and never stores it.
	touched atomic.Uint32
}

// counters is Stats as atomics, so that concurrent instructions holding
// the lock shared can retire without a lock of their own.
type counters struct {
	blocksRead, blocksWritten, sharedReads, aluBlockOps, instructions atomic.Uint64
}

// NewCore builds a core for DIMM tid of nodeDim.
func NewCore(tid, nodeDim int, env Env) (*Core, error) {
	if nodeDim <= 0 || tid < 0 || tid >= nodeDim {
		return nil, fmt.Errorf("nmp: tid %d out of range for nodeDim %d", tid, nodeDim)
	}
	if env == nil {
		return nil, fmt.Errorf("nmp: nil environment")
	}
	return &Core{TID: tid, NodeDim: nodeDim, env: env}, nil
}

// Stats returns the datapath counters. Each counter is exact: a retired
// instruction has added all of its counts before Execute returns. A call
// that races with running instructions may see some of an instruction's
// counts and not yet the rest; once the core is quiet, the snapshot is the
// exact total.
func (c *Core) Stats() Stats {
	s := &c.stats
	return Stats{
		BlocksRead:    s.blocksRead.Load(),
		BlocksWritten: s.blocksWritten.Load(),
		SharedReads:   s.sharedReads.Load(),
		ALUBlockOps:   s.aluBlockOps.Load(),
		Instructions:  s.instructions.Load(),
	}
}

// QueueHighWater returns the maximum occupancy reached by the A, B and C
// queues, to validate the paper's 0.5 KB sizing.
func (c *Core) QueueHighWater() (a, b, out int) {
	if c.stats.instructions.Load() > 0 {
		a, out = 1, 1
	}
	if c.stagedB.Load() {
		b = 1
	}
	return a, b, out
}

// Execute runs one TensorISA instruction on this core's slice of the
// operation, per the pseudo-code of Figure 9. SCATTER_ADD holds the core's
// lock exclusively; every other opcode holds it shared, so concurrent
// GATHER, REDUCE and AVERAGE calls run at once, and each waits only for a
// SCATTER_ADD (see the type comment).
//
// Every base must be stripe-aligned (a multiple of NodeDim blocks): the
// core's block of stripe s is then local block base/NodeDim + s, whereas a
// misaligned base names blocks that stripe to another DIMM — the
// rank-locality violation. Operands are bounds-checked against the rank's
// capacity once, table indices one by one as they are walked. An instruction
// that fails does not retire and adds nothing to Stats; the memory it has
// written by then is unspecified (a failing instruction is a runtime bug by
// contract).
func (c *Core) Execute(in isa.Instruction) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if in.Op == isa.OpScatterAdd {
		c.mu.Lock()
		defer c.mu.Unlock()
	} else {
		c.mu.RLock()
		defer c.mu.RUnlock()
	}
	var err error
	m := c.env.Local()
	switch in.Op {
	case isa.OpGather:
		err = c.gather(in, m)
	case isa.OpReduce:
		err = c.reduce(in, m)
	case isa.OpAverage:
		err = c.average(in, m)
	case isa.OpScatterAdd:
		err = c.scatterAdd(in, m)
	default:
		err = fmt.Errorf("nmp: unsupported opcode %v", in.Op)
	}
	if err == nil {
		c.retire(in)
	}
	return err
}

// retire adds what the block-at-a-time FSM of Figure 9 counts for one
// completed instruction of n = Count: block reads and writes, one ALU
// operation per block pair — AVERAGE: per accumulated block plus the divide
// — one shared read per 16 indices, and the queue occupancy. GATHER
// forwards A to C, AVERAGE accumulates out of A alone, REDUCE and
// SCATTER_ADD pop an operand pair from A and B. The counters are atomics,
// so instructions that share the core's lock retire side by side.
func (c *Core) retire(in isa.Instruction) {
	n := uint64(in.Count)
	s := &c.stats
	s.instructions.Add(1)
	s.blocksWritten.Add(n)
	switch in.Op {
	case isa.OpGather:
		s.sharedReads.Add(n / isa.LanesPerBlock)
		s.blocksRead.Add(n)
	case isa.OpReduce:
		s.blocksRead.Add(2 * n)
		s.aluBlockOps.Add(n)
	case isa.OpAverage:
		s.blocksRead.Add(in.Aux * n)
		s.aluBlockOps.Add((in.Aux + 1) * n)
	case isa.OpScatterAdd:
		s.sharedReads.Add(n / isa.LanesPerBlock)
		s.blocksRead.Add(2 * n)
		s.aluBlockOps.Add(n)
	}
	if (in.Op == isa.OpReduce || in.Op == isa.OpScatterAdd) && !c.stagedB.Load() {
		c.stagedB.Store(true)
	}
}

// operand resolves one operand tensor — `blocks` stripes starting at the
// global block address base — to its first local block in m. It is the only
// place a global address turns into a rank-local one: it refuses a base
// whose blocks stripe to another DIMM and an extent past the rank.
func (c *Core) operand(m []byte, op isa.Opcode, what string, base, blocks uint64) (uint64, error) {
	dim := uint64(c.NodeDim)
	if base%dim != 0 {
		g := base + uint64(c.TID)
		return 0, fmt.Errorf("nmp core %d: %v %s base %#x is not stripe-aligned: block %#x belongs to DIMM %d",
			c.TID, op, what, base, g, g%dim)
	}
	lo, limit := base/dim, uint64(len(m))/isa.BlockBytes
	if lo > limit || blocks > limit-lo {
		return 0, fmt.Errorf("nmp core %d: %v %s [%#x, +%d stripes) beyond local capacity %d B",
			c.TID, op, what, base, blocks, len(m))
	}
	return lo, nil
}

// indexed resolves what GATHER and SCATTER_ADD share: the index list (Count
// int32 indices, host-native, out of the replicated region), the table's
// first local block with the number of blocks from there to the end of the
// rank — the bound every index is checked against — and the first local
// block of the Count-stripe tensor at OutputBase.
func (c *Core) indexed(in isa.Instruction, m []byte) (idx []byte, table, rows, tensor uint64, err error) {
	idx, err = c.env.Shared(in.Aux, int(in.Count/isa.LanesPerBlock))
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("nmp core %d: %v index list: %w", c.TID, in.Op, err)
	}
	if table, err = c.operand(m, in.Op, "table", in.InputBase, 0); err != nil {
		return nil, 0, 0, 0, err
	}
	what := "output"
	if in.Op == isa.OpScatterAdd {
		what = "gradient"
	}
	if tensor, err = c.operand(m, in.Op, what, in.OutputBase, uint64(in.Count)); err != nil {
		return nil, 0, 0, 0, err
	}
	return idx, table, uint64(len(m))/isa.BlockBytes - table, tensor, nil
}

// block views local block b of m as a 64-byte array.
func block(m []byte, b uint64) *Block {
	return (*Block)(m[b*isa.BlockBytes:])
}

// floats views the n local blocks of m from block b as float32 lanes. The
// bytes are host-native, so the view is the data; writes through it are
// writes to the rank.
func floats(m []byte, b, n uint64) []float32 {
	p := m[b*isa.BlockBytes : (b+n)*isa.BlockBytes]
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(p))), len(p)/4)
}

// lanes views block b of a float view as one 16-lane array.
func lanes(v []float32, b uint64) *[ALULanes]float32 {
	return (*[ALULanes]float32)(v[b*ALULanes:])
}

// gatherWindow is the number of stripe indices GATHER touches at a time, one
// window ahead of its copies (see gather). Chosen by a sweep of the node's
// BenchmarkGatherRandomRows (EXPERIMENTS.md).
const gatherWindow = 256

// gather implements Figure 9(a): stream indices, copy table stripes to the
// output tensor. A run of consecutive stripe indices — the runtime expands
// every embedding row into k of them — is one contiguous copy on both sides.
// The walk goes window by window: before it copies the runs that start in
// one window it has touched every table block the next window names, so
// that window's misses are in flight together instead of one behind each
// copy. The first window is touched up front, and a run that crosses into
// the next window is still one copy.
func (c *Core) gather(in isa.Instruction, m []byte) error {
	idx, table, rows, out, err := c.indexed(in, m)
	if err != nil {
		return err
	}
	n := uint64(in.Count)
	c.touch(m, idx[:4*min(n, gatherWindow)], table, rows)
	for i, end := uint64(0), min(n, gatherWindow); i < n; end = min(n, end+gatherWindow) {
		c.touch(m, idx[4*end:4*min(n, end+gatherWindow)], table, rows)
		for i < end {
			first := uint64(binary.NativeEndian.Uint32(idx[i*4:]))
			run := uint64(1)
			for i+run < n && uint64(binary.NativeEndian.Uint32(idx[(i+run)*4:])) == first+run {
				run++
			}
			if first+run > rows {
				return fmt.Errorf("nmp core %d: GATHER index %d beyond local capacity %d B", c.TID, max(first, rows), len(m))
			}
			src, dst := table+first, out+i
			if dst > src && dst < src+run {
				// The output overlaps the rows still to be read: copy block
				// by block in ascending order, as the FSM does, so an
				// earlier write feeds the later read exactly as it would in
				// hardware.
				for k := uint64(0); k < run; k++ {
					*block(m, dst+k) = *block(m, src+k)
				}
			} else {
				copy(m[dst*isa.BlockBytes:(dst+run)*isa.BlockBytes], m[src*isa.BlockBytes:(src+run)*isa.BlockBytes])
			}
			i += run
		}
	}
	return nil
}

// touchLoop is GATHER's touch-ahead as a portable loop: one plain load of
// the first byte of each table block that an index of idx names, skipping an
// index past the rank (the copy refuses it), and the sum of what the loads
// return. The loads are independent, so their misses overlap, but each holds
// its slot until its line arrives. It is the touch of other architectures
// and of the race detector's builds (alu_other.go); on amd64 touch issues
// prefetches instead (alu_amd64.go). A touch moves no data and counts
// nothing in Stats.
func touchLoop(m, idx []byte, table, rows uint64) byte {
	var sum byte
	for o := 0; o+4 <= len(idx); o += 4 {
		if r := uint64(binary.NativeEndian.Uint32(idx[o:])); r < rows {
			sum += m[(table+r)*isa.BlockBytes]
		}
	}
	return sum
}

// reduce implements Figure 9(b): C = A <OP> B, as one loop over the three
// runs' lanes. Ascending lane order is the FSM's block-then-lane order, and
// each lane is read before it is written, so an output that overlaps an
// operand sees exactly the values it would in hardware.
func (c *Core) reduce(in isa.Instruction, m []byte) error {
	n := uint64(in.Count)
	a, err := c.operand(m, in.Op, "operand A", in.InputBase, n)
	if err != nil {
		return err
	}
	b, err := c.operand(m, in.Op, "operand B", in.Aux, n)
	if err != nil {
		return err
	}
	out, err := c.operand(m, in.Op, "output", in.OutputBase, n)
	if err != nil {
		return err
	}
	o := floats(m, out, n)
	x, y := floats(m, a, n)[:len(o)], floats(m, b, n)[:len(o)]
	switch in.ROp {
	case isa.RAdd:
		aluAdd(o, x, y)
	case isa.RSub:
		for i := range o {
			o[i] = x[i] - y[i]
		}
	case isa.RMul:
		for i := range o {
			o[i] = x[i] * y[i]
		}
	case isa.RMax:
		for i := range o {
			if x[i] >= y[i] {
				o[i] = x[i]
			} else {
				o[i] = y[i]
			}
		}
	}
	return nil
}

// average implements Figure 9(c): accumulate averageNum blocks, divide.
func (c *Core) average(in isa.Instruction, m []byte) error {
	n, group := uint64(in.Count), in.Aux
	if group > uint64(len(m))/isa.BlockBytes/n {
		return fmt.Errorf("nmp core %d: AVERAGE input of %d x %d stripes beyond local capacity %d B", c.TID, n, group, len(m))
	}
	src, err := c.operand(m, in.Op, "input", in.InputBase, n*group)
	if err != nil {
		return err
	}
	out, err := c.operand(m, in.Op, "output", in.OutputBase, n)
	if err != nil {
		return err
	}
	x, o := floats(m, src, n*group), floats(m, out, n)
	scale := 1 / float32(group)
	for i := uint64(0); i < n; i++ {
		var acc [ALULanes]float32 // 256'b0 ... extended to the full block
		for j := uint64(0); j < group; j++ {
			xb := lanes(x, i*group+j)
			for l := range acc {
				acc[l] += xb[l]
			}
		}
		ob := lanes(o, i)
		for l := range ob {
			ob[l] = acc[l] * scale
		}
	}
	return nil
}

// scatterAdd implements the SCATTER_ADD extension: the inverse of gather,
// accumulating gradient stripes into table rows (read-modify-write through
// the vector ALU, one add per row). Duplicate indices accumulate in
// instruction order because the core walks its slice sequentially.
func (c *Core) scatterAdd(in isa.Instruction, m []byte) error {
	idx, table, rows, grad, err := c.indexed(in, m)
	if err != nil {
		return err
	}
	tbl, g := floats(m, table, rows), floats(m, grad, uint64(in.Count))
	for i := uint64(0); i < uint64(in.Count); i++ {
		r := uint64(binary.NativeEndian.Uint32(idx[i*4:]))
		if r >= rows {
			return fmt.Errorf("nmp core %d: SCATTER_ADD index %d beyond local capacity %d B", c.TID, r, len(m))
		}
		row := lanes(tbl, r)
		aluAdd(row[:], row[:], lanes(g, i)[:])
	}
	return nil
}

// PackFloats encodes 16 float32 values into a block (host-native, the
// rank's layout).
func PackFloats(vals []float32) Block {
	var b Block
	for i, v := range vals {
		if i >= ALULanes {
			break
		}
		binary.NativeEndian.PutUint32(b[i*4:i*4+4], math.Float32bits(v))
	}
	return b
}

// UnpackFloats decodes a block into 16 float32 values.
func UnpackFloats(b Block) []float32 {
	out := make([]float32, ALULanes)
	for i := range out {
		out[i] = math.Float32frombits(binary.NativeEndian.Uint32(b[i*4 : i*4+4]))
	}
	return out
}

// PackIndices encodes 16 int32 lookup indices into a block, the layout the
// GATHER datapath expects for its index-list reads (host-native).
func PackIndices(vals []int32) Block {
	var b Block
	for i, v := range vals {
		if i >= ALULanes {
			break
		}
		binary.NativeEndian.PutUint32(b[i*4:i*4+4], uint32(v))
	}
	return b
}
