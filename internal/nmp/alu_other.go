//go:build !amd64 || race

package nmp

// aluAdd runs the portable loop of alu.go: there is no assembly kernel for
// this architecture, or the race detector is on and must see every lane the
// add touches.
func aluAdd(o, x, y []float32) { addLoop(o, x, y) }

// touch runs the plain-load loop touchLoop over idx, so the race detector
// sees every table block GATHER touches, and stores what the loads summed in
// Core.touched, only so that the compiler keeps them: one store per
// non-empty window.
func (c *Core) touch(m, idx []byte, table, rows uint64) {
	if len(idx) > 0 {
		c.touched.Store(uint32(touchLoop(m, idx, table, rows)))
	}
}
