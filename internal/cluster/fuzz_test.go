package cluster

import (
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
)

// FuzzClusterEmbed feeds arbitrary per-table row indices — including
// dup-heavy, negative, and far-out-of-range values, plus mis-shaped index
// lists — through the cluster router and merge of both sharding
// strategies, and straight into a runtime.Deployment of the whole model,
// whose tables sit back to back in one pool. The contract: neither may
// panic, both must reject invalid inputs with an error, and both must stay
// bit-identical to GoldenEmbedding on every valid input. valid is written
// out by hand: it is the reference the shared request contract is held to.
func FuzzClusterEmbed(f *testing.F) {
	mc := recsys.Config{
		Name: "fuzz", Tables: 2, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 97, Hidden: []int{8},
		Op: isa.RAdd,
	}
	m, err := recsys.Build(mc, 99)
	if err != nil {
		f.Fatal(err)
	}
	clusters := make([]*Cluster, 0, 2)
	for _, strategy := range []Strategy{TableWise, RowWise} {
		c, err := New(m, Config{
			Nodes: 3, Strategy: strategy, DIMMsPerNode: 4,
			MaxBatch: 4, CacheBytes: 8 << 10,
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { c.Close() })
		clusters = append(clusters, c)
	}
	nd, err := node.New(node.Config{DIMMs: 4, PerDIMMBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(nd.Close)
	dep, err := runtime.Deploy(m, nd, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { dep.Release() })

	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 0, 3})             // small valid request
	f.Add([]byte{4, 0xff, 0xff, 0, 0, 0, 0, 0, 0})       // out-of-range index
	f.Add([]byte{2, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5}) // dup-heavy
	f.Add([]byte{0})                                     // zero batch
	f.Add([]byte{9, 1, 2, 3})                            // batch beyond MaxBatch

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Byte 0 picks the batch (possibly invalid on purpose); the rest
		// decode to signed-ish indices, two bytes each, wrapping when the
		// input is short. A final control bit occasionally truncates one
		// table's list to exercise the shape validation.
		batch := int(data[0]) - 1 // -1..254: covers zero/negative/too-big
		lookups := batch * mc.Reduction
		if lookups < 0 {
			lookups = 0
		}
		if lookups > 64 {
			lookups = 64
			batch = lookups / mc.Reduction
		}
		body := data[1:]
		at := func(i int) byte {
			if len(body) == 0 {
				return 0
			}
			return body[i%len(body)]
		}
		rows := make([][]int, mc.Tables)
		p := 0
		for tb := range rows {
			rows[tb] = make([]int, lookups)
			for j := range rows[tb] {
				raw := int(at(p))<<8 | int(at(p+1))
				p += 2
				switch raw % 5 {
				case 0: // dup-heavy: repeat the previous index
					if j > 0 {
						rows[tb][j] = rows[tb][j-1]
					} else {
						rows[tb][j] = raw % mc.TableRows
					}
				case 1: // negative
					rows[tb][j] = -(raw & 0xff)
				default: // mostly in range, sometimes beyond
					rows[tb][j] = raw % (mc.TableRows + 7)
				}
			}
		}
		if len(body) > 0 && at(p)%7 == 0 && len(rows[0]) > 0 {
			rows[0] = rows[0][:len(rows[0])-1] // shape mismatch
		}

		valid := batch >= 1 && batch <= 4
		for tb := range rows {
			if len(rows[tb]) != batch*mc.Reduction {
				valid = false
			}
			for _, r := range rows[tb] {
				if r < 0 || r >= mc.TableRows {
					valid = false
				}
			}
		}

		for _, c := range clusters {
			got, err := embedTensor(c, rows, batch)
			if !valid {
				if err == nil {
					t.Fatalf("%v: invalid input accepted (batch %d)", c.cfg.Strategy, batch)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v: valid input rejected: %v", c.cfg.Strategy, err)
			}
			want, err := m.Embedding.Forward(rows, batch)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.Equal(got, want) {
				t.Fatalf("%v: embed differs from golden", c.cfg.Strategy)
			}
		}

		got := tensor.New(max(batch, 0), mc.Tables*mc.EmbDim)
		err := dep.RunEmbeddingInto(got.Data(), rows, batch)
		if !valid {
			if err == nil {
				t.Fatalf("runtime: invalid input accepted (batch %d)", batch)
			}
			return
		}
		if err != nil {
			t.Fatalf("runtime: valid input rejected: %v", err)
		}
		want, err := m.Embedding.Forward(rows, batch)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(got, want) {
			t.Fatal("runtime: embed differs from golden")
		}
	})
}
