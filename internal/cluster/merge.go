package cluster

import (
	"fmt"

	"tensordimm/internal/isa"
)

// Merger pools per-lookup embedding vectors into a request's output
// tensor with exactly the per-element operation sequence of the golden
// embed.Pool / embed.Average path: copy the first group member, apply the
// operator per member in order, scale for mean. It is the other half of
// the shared router core — the in-process Cluster and the remote replica
// router run the same Merge over their gathered rows, which is what makes
// both bit-identical to the golden recsys.Model.Embedding.Forward.
type Merger struct {
	// Tables, Dim, Reduction describe the full model's pooling geometry.
	Tables, Dim, Reduction int
	// Mean selects mean pooling (sum then scale by 1/Reduction).
	Mean bool
	// Op is the reduction operator when Mean is false.
	Op isa.ReduceOp
}

// Merge pools into dst (length batch*Tables*Dim, row-major
// [batch, Tables*Dim]). vec returns the Dim-wide gathered vector of
// lookup i (0 <= i < batch*Reduction) of table t; it is called in exactly
// the golden accumulation order. Merge performs no heap allocations — a
// router that reuses dst and a pre-built vec closure keeps its steady
// state allocation-free.
func (m Merger) Merge(dst []float32, batch int, vec func(t, i int) []float32) error {
	width := m.Tables * m.Dim
	red := m.Reduction
	for t := 0; t < m.Tables; t++ {
		for g := 0; g < batch; g++ {
			seg := dst[g*width+t*m.Dim : g*width+(t+1)*m.Dim]
			copy(seg, vec(t, g*red))
			for j := 1; j < red; j++ {
				v := vec(t, g*red+j)
				switch {
				case m.Mean, m.Op == isa.RAdd:
					for k := range seg {
						seg[k] += v[k]
					}
				case m.Op == isa.RSub:
					for k := range seg {
						seg[k] -= v[k]
					}
				case m.Op == isa.RMul:
					for k := range seg {
						seg[k] *= v[k]
					}
				case m.Op == isa.RMax:
					for k := range seg {
						if v[k] > seg[k] {
							seg[k] = v[k]
						}
					}
				default:
					return fmt.Errorf("cluster: merge table %d: unknown reduce op %v", t, m.Op)
				}
			}
			if m.Mean && red > 1 {
				inv := 1 / float32(red)
				for k := range seg {
					seg[k] *= inv
				}
			}
		}
	}
	return nil
}
