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
