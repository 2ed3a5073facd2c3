//go:build amd64 && !race

package nmp

// aluAdd runs the SSE2 add kernel of alu_amd64.s, sixteen lanes per loop
// iteration; SSE2 is part of every amd64 CPU, so nothing is detected at run
// time. It bounds x and y to the lanes of o, which holds whole 64-byte
// blocks (see addLoop).
func aluAdd(o, x, y []float32) { addSSE(o, x[:len(o)], y[:len(o)]) }

//go:noescape
func addSSE(o, x, y []float32)

// touch is GATHER's touch-ahead in builds for amd64 without the race
// detector (`amd64 && !race`): one PREFETCHT0 of the table block each index
// of idx names (prefetchRows, alu_amd64.s), skipping an index past the rank,
// and no wait for any of the lines. A prefetch has no result to keep, so
// nothing is stored in Core.touched. A plain load here would stall the loop
// on its own misses (see touchLoop).
func (c *Core) touch(m, idx []byte, table, rows uint64) { prefetchRows(m, idx, table, rows) }

//go:noescape
func prefetchRows(m, idx []byte, table, rows uint64)
