package nmp

// The block-at-a-time datapath of Figure 9 — SRAM queues, forward path, one
// Env call and one counter increment per 64-byte block — exactly as it ran in
// production before the bulk kernels replaced it. It lives in a _test file
// so that nothing outside this package's tests can reach it: it is the
// oracle the kernels are compared against (kernel_test.go, fuzz_test.go),
// not a second execute path. The method bodies below are the old ones,
// moved; only the receiver type is new, and lanes decode host-native, the
// rank's byte order.

import (
	"encoding/binary"
	"fmt"
	"math"

	"tensordimm/internal/isa"
)

// blockEnv is the per-block memory interface the FSM was written against:
// the old nmp.Env.
type blockEnv interface {
	// ReadLocal returns the rank-local block at the global block address.
	ReadLocal(globalBlock uint64) (Block, error)
	// WriteLocal stores a rank-local block.
	WriteLocal(globalBlock uint64, b Block) error
	// ReadShared returns a block of the node-wide replicated region that
	// holds GATHER index lists (broadcast alongside the instruction).
	ReadShared(globalBlock uint64) (Block, error)
}

// perBlock adapts the two-method Env of one DIMM to blockEnv, checking
// ownership and capacity for every block the way dimm.localOffset did.
type perBlock struct {
	env      Env
	tid, dim int
}

// localOffset translates a global block address to a byte offset in Local.
func (p perBlock) localOffset(globalBlock uint64) (uint64, error) {
	if int(globalBlock%uint64(p.dim)) != p.tid {
		return 0, fmt.Errorf("dimm %d: global block %#x belongs to DIMM %d",
			p.tid, globalBlock, globalBlock%uint64(p.dim))
	}
	off := (globalBlock / uint64(p.dim)) * isa.BlockBytes
	if off+isa.BlockBytes > uint64(len(p.env.Local())) {
		return 0, fmt.Errorf("dimm %d: global block %#x beyond local capacity %d B", p.tid, globalBlock, len(p.env.Local()))
	}
	return off, nil
}

func (p perBlock) ReadLocal(globalBlock uint64) (Block, error) {
	off, err := p.localOffset(globalBlock)
	if err != nil {
		return Block{}, err
	}
	var b Block
	copy(b[:], p.env.Local()[off:off+isa.BlockBytes])
	return b, nil
}

func (p perBlock) WriteLocal(globalBlock uint64, b Block) error {
	off, err := p.localOffset(globalBlock)
	if err != nil {
		return err
	}
	copy(p.env.Local()[off:off+isa.BlockBytes], b[:])
	return nil
}

func (p perBlock) ReadShared(globalBlock uint64) (Block, error) {
	s, err := p.env.Shared(globalBlock, 1)
	if err != nil {
		return Block{}, err
	}
	var b Block
	copy(b[:], s)
	return b, nil
}

// queue is a fixed-capacity ring of blocks — the input/output SRAM queues.
type queue struct {
	buf  [QueueBlocks]Block
	head int
	n    int
	// highWater tracks the maximum occupancy reached, for sizing checks.
	highWater int
}

func (q *queue) push(b Block) bool {
	if q.n == QueueBlocks {
		return false
	}
	q.buf[(q.head+q.n)%QueueBlocks] = b
	q.n++
	if q.n > q.highWater {
		q.highWater = q.n
	}
	return true
}

func (q *queue) pop() (Block, bool) {
	if q.n == 0 {
		return Block{}, false
	}
	b := q.buf[q.head]
	q.head = (q.head + 1) % QueueBlocks
	q.n--
	return b, true
}

// refCore is the old Core: one FSM driving the three queues.
type refCore struct {
	TID     int
	NodeDim int
	env     blockEnv

	inA, inB, out queue
	stats         Stats
}

// newRefCore builds the reference core for DIMM tid of nodeDim over env.
func newRefCore(tid, nodeDim int, env Env) *refCore {
	return &refCore{TID: tid, NodeDim: nodeDim, env: perBlock{env: env, tid: tid, dim: nodeDim}}
}

// referenceExecute is the old Core.Execute, less the mutex.
func (c *refCore) referenceExecute(in isa.Instruction) error {
	if err := in.Validate(); err != nil {
		return err
	}
	var err error
	switch in.Op {
	case isa.OpGather:
		err = c.gather(in)
	case isa.OpReduce:
		err = c.reduce(in)
	case isa.OpAverage:
		err = c.average(in)
	case isa.OpScatterAdd:
		err = c.scatterAdd(in)
	default:
		err = fmt.Errorf("nmp: unsupported opcode %v", in.Op)
	}
	if err == nil {
		c.stats.Instructions++
	}
	return err
}

func (c *refCore) readLocal(block uint64) (Block, error) {
	b, err := c.env.ReadLocal(block)
	if err == nil {
		c.stats.BlocksRead++
	}
	return b, err
}

func (c *refCore) writeLocal(block uint64, b Block) error {
	err := c.env.WriteLocal(block, b)
	if err == nil {
		c.stats.BlocksWritten++
	}
	return err
}

// gather implements Figure 9(a): stream indices, copy table stripes to the
// output tensor. Data passes through the input queue to the output queue
// (the ALU forwards, Section 4.2).
func (c *refCore) gather(in isa.Instruction) error {
	tid := uint64(c.TID)
	dim := uint64(c.NodeDim)
	for i := uint64(0); i < uint64(in.Count)/isa.LanesPerBlock; i++ {
		xb, err := c.env.ReadShared(in.Aux + i)
		if err != nil {
			return fmt.Errorf("nmp gather: index block %d: %w", i, err)
		}
		c.stats.SharedReads++
		for j := uint64(0); j < isa.LanesPerBlock; j++ {
			idx := uint64(binary.NativeEndian.Uint32(xb[j*4 : j*4+4]))
			blk, err := c.readLocal(in.InputBase + idx*dim + tid)
			if err != nil {
				return fmt.Errorf("nmp gather: index %d: %w", idx, err)
			}
			if !c.inA.push(blk) {
				return fmt.Errorf("nmp gather: input queue overflow")
			}
			fwd, _ := c.inA.pop() // forward path: input queue -> output queue
			if !c.out.push(fwd) {
				return fmt.Errorf("nmp gather: output queue overflow")
			}
			ob, _ := c.out.pop()
			if err := c.writeLocal(in.OutputBase+(i*isa.LanesPerBlock+j)*dim+tid, ob); err != nil {
				return err
			}
		}
	}
	return nil
}

// reduce implements Figure 9(b): C = A <OP> B, block by block.
func (c *refCore) reduce(in isa.Instruction) error {
	tid := uint64(c.TID)
	dim := uint64(c.NodeDim)
	for i := uint64(0); i < uint64(in.Count); i++ {
		a, err := c.readLocal(in.InputBase + i*dim + tid)
		if err != nil {
			return fmt.Errorf("nmp reduce: operand A block %d: %w", i, err)
		}
		b, err := c.readLocal(in.Aux + i*dim + tid)
		if err != nil {
			return fmt.Errorf("nmp reduce: operand B block %d: %w", i, err)
		}
		if !c.inA.push(a) || !c.inB.push(b) {
			return fmt.Errorf("nmp reduce: input queue overflow")
		}
		av, _ := c.inA.pop()
		bv, _ := c.inB.pop()
		cv := aluOp(in.ROp, av, bv)
		c.stats.ALUBlockOps++
		if !c.out.push(cv) {
			return fmt.Errorf("nmp reduce: output queue overflow")
		}
		ob, _ := c.out.pop()
		if err := c.writeLocal(in.OutputBase+i*dim+tid, ob); err != nil {
			return err
		}
	}
	return nil
}

// average implements Figure 9(c): accumulate averageNum blocks, divide.
func (c *refCore) average(in isa.Instruction) error {
	tid := uint64(c.TID)
	dim := uint64(c.NodeDim)
	n := in.Aux
	for i := uint64(0); i < uint64(in.Count); i++ {
		var acc Block // 256'b0 ... extended to the full block
		for j := uint64(0); j < n; j++ {
			a, err := c.readLocal(in.InputBase + (i*n+j)*dim + tid)
			if err != nil {
				return fmt.Errorf("nmp average: input %d.%d: %w", i, j, err)
			}
			if !c.inA.push(a) {
				return fmt.Errorf("nmp average: input queue overflow")
			}
			av, _ := c.inA.pop()
			acc = aluOp(isa.RAdd, acc, av)
			c.stats.ALUBlockOps++
		}
		acc = aluScale(acc, 1/float32(n))
		c.stats.ALUBlockOps++
		if !c.out.push(acc) {
			return fmt.Errorf("nmp average: output queue overflow")
		}
		ob, _ := c.out.pop()
		if err := c.writeLocal(in.OutputBase+i*dim+tid, ob); err != nil {
			return err
		}
	}
	return nil
}

// scatterAdd implements the SCATTER_ADD extension: the inverse of gather,
// accumulating gradient stripes into table rows (read-modify-write through
// the A/B input queues and the vector ALU). Duplicate indices accumulate in
// instruction order because the core executes its slice sequentially.
func (c *refCore) scatterAdd(in isa.Instruction) error {
	tid := uint64(c.TID)
	dim := uint64(c.NodeDim)
	for i := uint64(0); i < uint64(in.Count)/isa.LanesPerBlock; i++ {
		xb, err := c.env.ReadShared(in.Aux + i)
		if err != nil {
			return fmt.Errorf("nmp scatter-add: index block %d: %w", i, err)
		}
		c.stats.SharedReads++
		for j := uint64(0); j < isa.LanesPerBlock; j++ {
			idx := uint64(binary.NativeEndian.Uint32(xb[j*4 : j*4+4]))
			grad, err := c.readLocal(in.OutputBase + (i*isa.LanesPerBlock+j)*dim + tid)
			if err != nil {
				return fmt.Errorf("nmp scatter-add: gradient %d: %w", i*isa.LanesPerBlock+j, err)
			}
			row, err := c.readLocal(in.InputBase + idx*dim + tid)
			if err != nil {
				return fmt.Errorf("nmp scatter-add: table row %d: %w", idx, err)
			}
			if !c.inA.push(row) || !c.inB.push(grad) {
				return fmt.Errorf("nmp scatter-add: input queue overflow")
			}
			av, _ := c.inA.pop()
			bv, _ := c.inB.pop()
			sum := aluOp(isa.RAdd, av, bv)
			c.stats.ALUBlockOps++
			if !c.out.push(sum) {
				return fmt.Errorf("nmp scatter-add: output queue overflow")
			}
			ob, _ := c.out.pop()
			if err := c.writeLocal(in.InputBase+idx*dim+tid, ob); err != nil {
				return err
			}
		}
	}
	return nil
}

// aluOp applies the element-wise operator across the 16 float32 lanes.
func aluOp(op isa.ReduceOp, a, b Block) Block {
	var out Block
	for l := 0; l < ALULanes; l++ {
		av := math.Float32frombits(binary.NativeEndian.Uint32(a[l*4 : l*4+4]))
		bv := math.Float32frombits(binary.NativeEndian.Uint32(b[l*4 : l*4+4]))
		var r float32
		switch op {
		case isa.RAdd:
			r = av + bv
		case isa.RSub:
			r = av - bv
		case isa.RMul:
			r = av * bv
		case isa.RMax:
			if av >= bv {
				r = av
			} else {
				r = bv
			}
		}
		binary.NativeEndian.PutUint32(out[l*4:l*4+4], math.Float32bits(r))
	}
	return out
}

// aluScale multiplies every lane by s (the divide step of AVERAGE).
func aluScale(a Block, s float32) Block {
	var out Block
	for l := 0; l < ALULanes; l++ {
		av := math.Float32frombits(binary.NativeEndian.Uint32(a[l*4 : l*4+4]))
		binary.NativeEndian.PutUint32(out[l*4:l*4+4], math.Float32bits(av*s))
	}
	return out
}
