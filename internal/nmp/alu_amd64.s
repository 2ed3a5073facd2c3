//go:build amd64 && !race

#include "textflag.h"

// func addSSE(o, x, y []float32)
//
// The ALU's add as an SSE2 kernel. Each loop iteration is one 64-byte block:
// sixteen float32 lanes in four XMM registers, the ALU's one block operation
// per cycle. An iteration loads both operand blocks before it stores the
// result, which is the FSM's order: when the output overlaps an operand by
// whole blocks, a later iteration reads what an earlier one wrote, as the
// hardware would. Loads and stores are unaligned (MOVUPS) and the adds run
// register to register, so no operand needs 16-byte alignment. aluAdd
// (alu_amd64.go) bounds x and y to len(o) lanes, a whole number of blocks.
TEXT ·addSSE(SB), NOSPLIT, $0-72
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), DX
	SHRQ $4, CX
	JZ   done

block:
	MOVUPS 0(SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	MOVUPS 0(DX), X4
	MOVUPS 16(DX), X5
	MOVUPS 32(DX), X6
	MOVUPS 48(DX), X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DX
	ADDQ   $64, DI
	DECQ   CX
	JNZ    block

done:
	RET

// func prefetchRows(m, idx []byte, table, rows uint64)
//
// GATHER's touch-ahead as list prefetching: for each 4-byte host-native
// index r of idx with r < rows, one PREFETCHT0 of local block table+r of m.
// A prefetch retires without waiting for its line, so the misses of a whole
// window are in flight together and the copies behind them run while the
// lines arrive; a plain load would hold its slot until its line came. An
// index past the rank is skipped, as touchLoop skips it, though a prefetch
// never faults. PREFETCHT0 is part of every amd64 CPU.
TEXT ·prefetchRows(SB), NOSPLIT, $0-64
	MOVQ m_base+0(FP), DI
	MOVQ idx_base+24(FP), SI
	MOVQ idx_len+32(FP), CX
	MOVQ table+48(FP), AX
	MOVQ rows+56(FP), DX
	SHLQ $6, AX
	ADDQ AX, DI
	SHRQ $2, CX
	JZ   done

index:
	MOVL (SI), AX
	CMPQ AX, DX
	JAE  next
	SHLQ $6, AX
	PREFETCHT0 (DI)(AX*1)

next:
	ADDQ $4, SI
	DECQ CX
	JNZ  index

done:
	RET
