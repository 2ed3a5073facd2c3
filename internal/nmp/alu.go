package nmp

// addLoop is the ALU's add as a portable loop, one float32 lane at a time:
// o = x + y. It is the only add on architectures without an assembly kernel
// and under the race detector (alu_other.go), so the detector sees every
// lane the add reads or writes; elsewhere it is the model the SSE2 kernel of
// alu_amd64.s is held to bit for bit (TestALUKernelsBitExact).
//
// o holds whole 64-byte blocks, and x and y at least as many lanes. Lanes go
// in ascending order and each is read before it is written, so an output
// that overlaps an operand by whole blocks sees exactly what the
// block-at-a-time FSM leaves there.
func addLoop(o, x, y []float32) {
	x, y = x[:len(o)], y[:len(o)]
	for i := range o {
		o[i] = x[i] + y[i]
	}
}
