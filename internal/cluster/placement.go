package cluster

import (
	"fmt"

	"tensordimm/internal/embed"
	"tensordimm/internal/isa"
	"tensordimm/internal/nn"
	"tensordimm/internal/recsys"
)

// Strategy selects how a model's embedding tables are split across the
// cluster's shards.
type Strategy int

// Supported sharding strategies.
const (
	// TableWise assigns whole tables to shards round-robin (table t lives
	// on shard t mod N). It is the default: per-table traffic stays on one
	// node and the only cross-node data is each table's partial result.
	TableWise Strategy = iota
	// RowWise hash-partitions every table's rows across all shards (row r
	// lives on shard r mod N), for tables too large for any single node.
	// Every shard then holds a slice of every table and pooling groups span
	// shards, so partial gathered rows cross the interconnect.
	RowWise
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case TableWise:
		return "table-wise"
	case RowWise:
		return "row-wise"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Placement maps every (table, row) coordinate of the full model onto a
// shard and a row of that shard's flat local table. Each shard stores all
// the rows it owns — from however many global tables — concatenated into
// one flat gather-only table, so a sub-request is a single index list no
// matter how many tables it touches. It is the shared router core: the
// in-process Cluster and the remote replica router derive identical
// layouts from it, which is what lets a remote fleet serve bit-identical
// results and lets a replica process carve a single shard's model out of
// the full one (DeployShard).
type Placement struct {
	strategy Strategy
	nodes    int
	tables   int
	rows     int // rows per global table
	// flatBase[s][t] is the first flat row of table t's slice on shard s,
	// or -1 when shard s holds none of table t.
	flatBase [][]int
	// localRows[s] is the flat table height of shard s (0 = empty shard).
	localRows []int
}

// NewPlacement precomputes the shard layout for a model of `tables` tables
// with `rows` rows each over `nodes` shards.
func NewPlacement(strategy Strategy, nodes, tables, rows int) *Placement {
	p := &Placement{
		strategy:  strategy,
		nodes:     nodes,
		tables:    tables,
		rows:      rows,
		flatBase:  make([][]int, nodes),
		localRows: make([]int, nodes),
	}
	for s := range p.flatBase {
		p.flatBase[s] = make([]int, tables)
		for t := range p.flatBase[s] {
			p.flatBase[s][t] = -1
		}
	}
	switch strategy {
	case TableWise:
		for t := 0; t < tables; t++ {
			s := t % nodes
			p.flatBase[s][t] = p.localRows[s]
			p.localRows[s] += rows
		}
	case RowWise:
		for s := 0; s < nodes; s++ {
			// Shard s owns rows s, s+N, s+2N, ... of every table:
			// ceil((rows-s)/N) rows when s < rows, none otherwise.
			count := 0
			if s < rows {
				count = (rows - s + nodes - 1) / nodes
			}
			for t := 0; t < tables; t++ {
				if count == 0 {
					continue
				}
				p.flatBase[s][t] = p.localRows[s]
				p.localRows[s] += count
			}
		}
	}
	return p
}

// Locate returns the shard owning (table, row) and the row's index in that
// shard's flat local table.
func (p *Placement) Locate(table, row int) (shard, flat int) {
	switch p.strategy {
	case RowWise:
		s := row % p.nodes
		return s, p.flatBase[s][table] + row/p.nodes
	default: // TableWise
		s := table % p.nodes
		return s, p.flatBase[s][table] + row
	}
}

// TablesOn returns how many global tables shard s holds a slice of.
func (p *Placement) TablesOn(s int) int {
	n := 0
	for _, base := range p.flatBase[s] {
		if base >= 0 {
			n++
		}
	}
	return n
}

// LocalRows returns the flat local table height of shard s (0 = the
// placement puts nothing on shard s).
func (p *Placement) LocalRows(s int) int { return p.localRows[s] }

// MaxSub returns the worst-case sub-request row count for shard s: every
// lookup of a maximal request of maxBatch samples with the given pooling
// reduction lands on it. It is the MaxBatch a shard's serving stack must
// be sized for.
func (p *Placement) MaxSub(s, maxBatch, reduction int) int {
	return p.TablesOn(s) * maxBatch * reduction
}

// buildShardModel materializes the gather-only model shard s serves under
// placement p: the flat local table copied row-by-row from m's tables
// (one flat table, reduction 1 — pooling happens at the router's merge)
// plus a minimal MLP so every Model invariant holds. The source model is
// not modified, and a deployment of the shard model keeps no reference to
// the flat table once it is uploaded.
func buildShardModel(m *recsys.Model, p *Placement, s int) (*recsys.Model, error) {
	mc := m.Cfg
	localRows := p.localRows[s]
	if localRows == 0 {
		return nil, fmt.Errorf("cluster: shard %d holds no rows under %v placement of %d shards", s, p.strategy, p.nodes)
	}
	flat, err := embed.NewTable(localRows, mc.EmbDim)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d table: %w", s, err)
	}
	for t := 0; t < mc.Tables; t++ {
		base := p.flatBase[s][t]
		if base < 0 {
			continue
		}
		src := m.Embedding.Tables[t]
		if p.strategy == RowWise {
			for i, r := 0, s; r < mc.TableRows; i, r = i+1, r+p.nodes {
				copy(flat.Row(base+i), src.Row(r))
			}
		} else {
			for r := 0; r < mc.TableRows; r++ {
				copy(flat.Row(base+r), src.Row(r))
			}
		}
	}
	shardCfg := recsys.Config{
		Name:      fmt.Sprintf("%s/shard%d", mc.Name, s),
		Tables:    1,
		Reduction: 1,
		FCLayers:  0,
		EmbDim:    mc.EmbDim,
		TableRows: localRows,
		Op:        isa.RAdd,
	}
	mlp, err := nn.NewMLP(shardCfg.MLPDims(), int64(s))
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d mlp: %w", s, err)
	}
	return &recsys.Model{
		Cfg: shardCfg,
		Embedding: &embed.Layer{
			Tables:    []*embed.Table{flat},
			Reduction: 1,
			Op:        isa.RAdd,
		},
		MLP: mlp,
	}, nil
}

// ExtractShardModel materializes the gather-only model shard s of `nodes`
// serves under the given strategy — the same construction the in-process
// Cluster performs, exported so a remote TensorNode process can build
// exactly the shard the router's placement expects from the same
// deterministically-seeded full model (DeployShard deploys it, as
// `tensorserve shard` does). A shard the placement leaves empty is an
// error.
func ExtractShardModel(m *recsys.Model, strategy Strategy, nodes, s int) (*recsys.Model, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("cluster: nodes must be positive, got %d", nodes)
	}
	if s < 0 || s >= nodes {
		return nil, fmt.Errorf("cluster: shard %d out of range [0, %d)", s, nodes)
	}
	if strategy != TableWise && strategy != RowWise {
		return nil, fmt.Errorf("cluster: unknown strategy %v", strategy)
	}
	p := NewPlacement(strategy, nodes, m.Cfg.Tables, m.Cfg.TableRows)
	return buildShardModel(m, p, s)
}
