//go:build amd64 && !race

package nmp

// aluAdd runs the SSE2 add kernel of alu_amd64.s, sixteen lanes per loop
// iteration; SSE2 is part of every amd64 CPU, so nothing is detected at run
// time. It bounds x and y to the lanes of o, which holds whole 64-byte
// blocks (see addLoop).
func aluAdd(o, x, y []float32) { addSSE(o, x[:len(o)], y[:len(o)]) }

//go:noescape
func addSSE(o, x, y []float32)
