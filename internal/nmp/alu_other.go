//go:build !amd64 || race

package nmp

// aluAdd runs the portable loop of alu.go: there is no assembly kernel for
// this architecture, or the race detector is on and must see every lane the
// add touches.
func aluAdd(o, x, y []float32) { addLoop(o, x, y) }
