package serve

import (
	"fmt"
	"slices"
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
)

// TestDeployTightSizingFits sweeps geometries through Deploy, whose node
// holds exactly what the deployment reserves (runtime.PerDIMMBytes, no
// headroom): every deploy must fit, and so must the largest read and the
// largest update the server accepts — the update staging its MaxBatch x
// reduction gradient rows in the update lane's own buffer. Both reads
// bit-match the golden model, before and after the update, so no buffer
// overlaps a table. Geometries whose embedding does not fill whole node
// stripes are skipped: DeployConcurrent refuses them whatever the node's
// size.
func TestDeployTightSizingFits(t *testing.T) {
	const tableRows = 97
	for _, tables := range []int{1, 3, 8} {
		for _, dim := range []int{16, 64, 256} {
			for _, reduction := range []int{1, 2} {
				for _, maxBatch := range []int{1, 7, 64} {
					for _, workers := range []int{1, 2, 4} {
						for _, dimms := range []int{1, 2, 4, 8} {
							if dim%(dimms*isa.LanesPerBlock) != 0 {
								continue
							}
							mc := recsys.Config{
								Name: "sizing", Tables: tables, Reduction: reduction, FCLayers: 1,
								EmbDim: dim, TableRows: tableRows, Hidden: []int{4}, Op: isa.RAdd,
							}
							name := fmt.Sprintf("t%d/d%d/r%d/b%d/w%d/dimms%d", tables, dim, reduction, maxBatch, workers, dimms)
							if err := maximalReadAndUpdate(mc, dimms, maxBatch, workers); err != nil {
								t.Errorf("%s: %v", name, err)
							}
						}
					}
				}
			}
		}
	}
}

// maximalReadAndUpdate deploys mc on a node of dimms TensorDIMMs sized by
// Deploy and drives one full-batch read over the last rows of every table,
// one update of MaxBatch x reduction rows, and the read again, checking
// both reads against a golden model that absorbs the update.
func maximalReadAndUpdate(mc recsys.Config, dimms, maxBatch, workers int) error {
	m, err := recsys.Build(mc, 5)
	if err != nil {
		return err
	}
	s, err := Deploy(m, dimms, Config{MaxBatch: maxBatch, Workers: workers})
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	defer s.Close()
	n := maxBatch * mc.Reduction
	rows := make([][]int, mc.Tables)
	for t := range rows {
		rows[t] = make([]int, n)
		for i := range rows[t] {
			rows[t][i] = mc.TableRows - 1 - i%mc.TableRows
		}
	}
	read := func(when string) error {
		got, err := s.EmbedInto(nil, rows, maxBatch)
		if err != nil {
			return fmt.Errorf("%s read: %w", when, err)
		}
		want, err := m.Embedding.Forward(rows, maxBatch)
		if err != nil {
			return err
		}
		if !slices.Equal(got, want.Data()) {
			return fmt.Errorf("%s read differs from the golden embedding", when)
		}
		return nil
	}
	if err := read("first"); err != nil {
		return err
	}
	grads := tensor.New(n, mc.EmbDim)
	for i, g := 0, grads.Data(); i < len(g); i++ {
		g[i] = float32(i%7) * 0.125
	}
	up := runtime.TableUpdate{Table: mc.Tables - 1, Rows: rows[mc.Tables-1], Grads: grads}
	if err := s.Update([]runtime.TableUpdate{up}); err != nil {
		return fmt.Errorf("update: %w", err)
	}
	// m is input only, so it serves as the golden once it absorbs the update.
	runtime.AccumulateGolden(m.Embedding.Tables[up.Table], up)
	return read("post-update")
}
