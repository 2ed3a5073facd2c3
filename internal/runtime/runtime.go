// Package runtime implements the software runtime of Section 4.4: it deploys
// recommender models onto a TensorNode (remote pool allocation, striped
// table upload), compiles embedding layers into TensorISA programs (the
// GATHER / REDUCE / AVERAGE sequences of Figure 2), broadcasts them for
// near-memory execution, and reads back the pooled tensor the GPU would
// receive over NVLink.
//
// Index expansion. TensorISA addresses tensors in stripes (one 64-byte block
// per TensorDIMM). When an embedding spans k stripes (dimension larger than
// nodeDim x 16 elements), the runtime expands each logical row index into k
// stripe indices. Within a pooling group the expansion is stripe-transposed
// — group-major, then stripe, then group member — which is exactly the
// layout that makes the paper's AVERAGE addressing (Figure 9(c), input
// i*averageNum+j) pool corresponding stripes of the group's embeddings.
//
// Concurrency. A Deployment partitions its scratch memory into execution
// slots (one pooled-output region each) and scratch lanes (one index-list
// region plus two gather operand buffers each). RunEmbeddingInto acquires a
// free slot for the whole batch and fans the per-table GATHER/REDUCE
// programs out across the lanes, so every in-flight table touches a
// disjoint slice of the pool and concurrent batches never alias. Deploy
// gives a deployment one slot and one lane — the sequential behavior of the
// paper's runtime — while DeployConcurrent sizes both for a serving
// workload (see internal/serve).
//
// Memory discipline. Each lane is owned by one persistent worker goroutine
// holding the lane's host-side scratch (expanded index list, row-split
// buffers, compiled program), and each slot carries a preallocated job array
// and WaitGroup; RunEmbeddingInto writes the pooled result into a
// caller-provided buffer. Together these make the steady-state embedding
// path — expansion, compilation, broadcast, execution, read-back — free of
// heap allocations (see ARCHITECTURE.md, "Memory discipline"). The update
// lane's scratch is preallocated too, so an update allocates nothing either.
//
// Online updates. ApplyUpdates programs the SCATTER_ADD extension on the
// deployment's one update lane, on the caller's goroutine: gradient rows are
// staged into the lane's staging buffer, expanded stripe indices into its
// index region, and the NMP cores accumulate them into the resident table.
// One update lock orders every write of the deployment (updates and
// restores) in slice order, because float accumulation order is part of the
// bit-identity contract with an oracle accumulating in order. Tables inside
// one multi-table batch therefore scatter one after another, not
// concurrently.
package runtime

import (
	"errors"
	"fmt"
	"sync"

	"tensordimm/internal/embed"
	"tensordimm/internal/gate"
	"tensordimm/internal/isa"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// scratchLane is the per-execution scratch a single table's embedding stage
// needs: a reserved index-list region of the replicated shared store, two
// gather operand buffers in the pool (enough for pairwise REDUCE), and the
// host-side reusable buffers of the lane's worker goroutine. The host
// buffers are owned exclusively by that worker, so the compile/expand stage
// never allocates in steady state.
type scratchLane struct {
	idxBase    uint64    // shared-region byte address for index lists
	gatherBase [2]uint64 // pool scratch for gathered tensors

	idx   []int32 // expanded stripe-index scratch
	rowsA []int   // even group members (pairwise-REDUCE split)
	rowsB []int   // odd group members
	prog  isa.Program
}

// laneJob is one table's GATHER/REDUCE stage of a batch, handed to a lane
// worker. Jobs live in a slot's preallocated job array, so none allocates
// per batch.
type laneJob struct {
	t     int   // target table
	rows  []int // the table's row indices
	batch int
	out   uint64
	wg    *sync.WaitGroup
	err   error
}

// slotScratch is the per-slot execution state: one preallocated gather job
// per table and the WaitGroup the jobs signal. A slot is held by exactly
// one batch at a time (acquired through freeSlot), so the array is never
// shared between in-flight batches.
type slotScratch struct {
	wg   sync.WaitGroup
	jobs []laneJob
}

// Deployment is a recommender model resident in a TensorNode pool.
//
// RunEmbeddingInto, Infer, ApplyUpdates and RestoreRows are safe for
// concurrent use; the number of concurrent batches in flight is bounded by
// the deployment's slots and the per-table parallelism within a batch by its
// lanes. Writes run one at a time on the update lane, under the update lock.
type Deployment struct {
	// model holds the deployed model's config and MLP, not its tables: the
	// node holds the only copy of those.
	model *recsys.Model
	// Node is the TensorNode pool holding the uploaded tables and scratch.
	Node *node.Node

	tableBase []uint64      // pool byte address of each table
	stripes   int           // stripes per embedding (k)
	geom      wire.Geometry // the request contract, MaxBatch = the deployment's
	padSlack  uint64        // per-table output slack absorbing GATHER index padding

	outBase  []uint64       // pooled output tensor region, one per slot
	lanes    []*scratchLane // index + gather scratch, one per lane worker
	slots    []slotScratch  // per-slot job arrays
	freeSlot chan int
	work     chan *laneJob // feeds the persistent lane workers

	// updMu serializes every write (ApplyUpdates, RestoreRows): writes
	// apply in lock order, and within a call in slice order (float
	// accumulation is not associative, so order is part of the
	// bit-identity contract). It also makes the holder the sole user of
	// upd, the update lane: an index region and one staging buffer
	// (gatherBase[0]) of maxBatch x reduction rows.
	updMu sync.Mutex
	upd   *scratchLane

	// gate admits executions until Release, which waits for every running
	// one before closing the lane workers' job channel (a send on a closed
	// channel would panic).
	gate gate.Gate
}

// errReleased is what every execution returns once Release has begun.
var errReleased = errors.New("runtime: deployment is released")

// PerDIMMBytes sizes one DIMM of a node of dimms TensorDIMMs to hold
// exactly what DeployConcurrent reserves for a model of cfg: the tables,
// two gather buffers per lane and the update lane's staging buffer, one
// output region per slot, and a stripe of alignment margin per
// allocation. There is no headroom: the node holds the deployment and
// nothing else.
func PerDIMMBytes(cfg recsys.Config, dimms, maxBatch, slots, lanes int) uint64 {
	stripe := uint64(dimms) * isa.BlockBytes
	_, gather, out := scratchBytes(cfg, maxBatch, stripe)
	allocs := uint64(cfg.Tables + 2*lanes + 1 + slots)
	need := uint64(cfg.TotalTableBytes()) + uint64(2*lanes+1)*gather + uint64(slots)*out + allocs*stripe
	per := (need + uint64(dimms) - 1) / uint64(dimms)
	return (per + 4095) / 4096 * 4096
}

// scratchBytes returns what DeployConcurrent sizes its scratch by on a
// node striped stripe bytes wide: the padding slack, one gather buffer and
// one slot's output region.
func scratchBytes(cfg recsys.Config, maxBatch int, stripe uint64) (padSlack, gather, out uint64) {
	emb := uint64(cfg.EmbBytes())
	padSlack = isa.LanesPerBlock * stripe
	return padSlack, uint64(maxBatch*cfg.Reduction)*emb + padSlack, uint64(cfg.Tables) * (uint64(maxBatch)*emb + padSlack)
}

// Deploy uploads the model's embedding tables into the node (striped across
// all TensorDIMMs) and pre-allocates the scratch regions for batches up to
// maxBatch, with a single execution slot and scratch lane (sequential
// embedding execution, the paper's baseline runtime). It exercises the
// remote-pool allocation APIs ([39]). The caller's model is input only.
func Deploy(m *recsys.Model, nd *node.Node, maxBatch int) (*Deployment, error) {
	return DeployConcurrent(m, nd, maxBatch, 1, 1)
}

// DeployConcurrent is Deploy with explicit concurrency sizing: slots bounds
// how many batches can execute at once (one pooled-output region each) and
// lanes bounds how many per-table programs can be in flight across those
// batches (one index region plus two gather buffers each). A serving setup
// typically uses slots = worker count and lanes = slots x tables. Next to
// the lanes it reserves the update lane: one index region and one staging
// buffer the size of a gather buffer.
func DeployConcurrent(m *recsys.Model, nd *node.Node, maxBatch, slots, lanes int) (*Deployment, error) {
	cfg := m.Cfg
	embBytes := int(cfg.EmbBytes())
	stripeBytes := int(nd.StripeBytes())
	if embBytes%stripeBytes != 0 {
		return nil, fmt.Errorf("runtime: embedding size %d B is not a multiple of the node stripe %d B",
			embBytes, stripeBytes)
	}
	if maxBatch <= 0 {
		return nil, fmt.Errorf("runtime: maxBatch must be positive")
	}
	if slots <= 0 || lanes <= 0 {
		return nil, fmt.Errorf("runtime: slots (%d) and lanes (%d) must be positive", slots, lanes)
	}
	d := &Deployment{
		model:    &recsys.Model{Cfg: cfg, MLP: m.MLP},
		Node:     nd,
		stripes:  embBytes / stripeBytes,
		geom:     wire.Geometry{Tables: cfg.Tables, Reduction: cfg.Reduction, Dim: cfg.EmbDim, TableRows: cfg.TableRows, MaxBatch: maxBatch},
		freeSlot: make(chan int, slots),
		work:     make(chan *laneJob, slots*cfg.Tables),
	}

	// Upload tables.
	for t, tb := range m.Embedding.Tables {
		base, err := nd.Alloc(uint64(tb.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("runtime: alloc table %d: %w", t, err)
		}
		for r := 0; r < tb.Rows(); r++ {
			off := base + uint64(r)*uint64(embBytes)
			if err := nd.WriteFloats(off, tb.Row(r)); err != nil {
				return nil, fmt.Errorf("runtime: upload table %d row %d: %w", t, r, err)
			}
		}
		d.tableBase = append(d.tableBase, base)
	}

	// Scratch. Gather buffers are sized for the worst case — a full batch of
	// reduction-many embeddings — plus one index block of padding slack
	// (GATHER counts are rounded up to 16 and the padded stripes land just
	// past the live region). Every per-table segment of the output region
	// carries the same slack: when reduction is 1 GATHER writes straight
	// into the output, and its padding stripes must not clobber the next
	// table's segment, whichever order the tables execute in. Index regions
	// get the worst-case expanded list plus two blocks of padding slack (the
	// pairwise-REDUCE path pads each of its two halves independently).
	var gatherBytes, outBytes uint64
	d.padSlack, gatherBytes, outBytes = scratchBytes(cfg, maxBatch, uint64(stripeBytes))
	idxCap := maxBatch*cfg.Reduction*d.stripes + 2*isa.LanesPerBlock
	idxBytes := uint64(idxCap) * 4
	for i := 0; i < lanes; i++ {
		ln := &scratchLane{
			idx:   make([]int32, 0, idxCap),
			rowsA: make([]int, 0, maxBatch),
			rowsB: make([]int, 0, maxBatch),
			prog:  make(isa.Program, 0, 3),
		}
		ln.idxBase = nd.ReserveIndexRegion(idxBytes)
		for j := 0; j < 2; j++ {
			b, err := nd.Alloc(gatherBytes)
			if err != nil {
				return nil, fmt.Errorf("runtime: alloc gather scratch (lane %d): %w", i, err)
			}
			ln.gatherBase[j] = b
		}
		d.lanes = append(d.lanes, ln)
	}
	stage, err := nd.Alloc(gatherBytes)
	if err != nil {
		return nil, fmt.Errorf("runtime: alloc update staging: %w", err)
	}
	d.upd = &scratchLane{idxBase: nd.ReserveIndexRegion(idxBytes), gatherBase: [2]uint64{stage}, idx: make([]int32, 0, idxCap)}
	d.slots = make([]slotScratch, slots)
	for s := 0; s < slots; s++ {
		out, err := nd.Alloc(outBytes)
		if err != nil {
			return nil, fmt.Errorf("runtime: alloc output (slot %d): %w", s, err)
		}
		d.outBase = append(d.outBase, out)
		d.slots[s].jobs = make([]laneJob, cfg.Tables)
		for t := range d.slots[s].jobs {
			d.slots[s].jobs[t].wg = &d.slots[s].wg
		}
		d.freeSlot <- s
	}
	// The lane workers own their scratch for the deployment's lifetime;
	// Release closes the work channel to stop them.
	for _, ln := range d.lanes {
		go d.laneWorker(ln)
	}
	return d, nil
}

// laneWorker drains the deployment's job channel with exclusive use of one
// scratch lane (device regions and host buffers alike), until Release
// closes the channel.
func (d *Deployment) laneWorker(ln *scratchLane) {
	for j := range d.work {
		j.err = d.runTable(ln, j.out, j.t, j.rows, j.batch)
		j.wg.Done()
	}
}

// Release waits for every running execution, stops the lane workers,
// frees all pool allocations of the deployment and returns every lane's
// index region, the update lane's included, to the node. It is idempotent,
// so shutdown paths (server close, deferred cleanup) can release
// unconditionally: the pool is freed once, and every call, concurrent ones
// included, returns only after that, with the first release's error.
func (d *Deployment) Release() error {
	return d.gate.Close(func() error {
		close(d.work) // the gate has drained: no execution can still send
		var first error
		keep := func(err error) {
			if err != nil && first == nil {
				first = err
			}
		}
		for _, b := range d.tableBase {
			keep(d.Node.Free(b))
		}
		for _, ln := range d.lanes {
			keep(d.Node.Free(ln.gatherBase[0]))
			keep(d.Node.Free(ln.gatherBase[1]))
			keep(d.Node.ReleaseIndexRegion(ln.idxBase))
		}
		keep(d.Node.Free(d.upd.gatherBase[0]))
		keep(d.Node.ReleaseIndexRegion(d.upd.idxBase))
		for _, b := range d.outBase {
			keep(d.Node.Free(b))
		}
		return first
	})
}

// Stripes returns the number of stripes per embedding under this node.
func (d *Deployment) Stripes() int { return d.stripes }

// Slots returns how many batches can execute concurrently.
func (d *Deployment) Slots() int { return len(d.outBase) }

// Geometry returns the request contract, MaxBatch the largest batch.
func (d *Deployment) Geometry() wire.Geometry { return d.geom }

// Lanes returns how many per-table programs can be in flight at once. The
// update lane is not counted: it runs writes only.
func (d *Deployment) Lanes() int { return len(d.lanes) }

// ExpandIndicesInto expands logical row indices into stripe indices for
// GATHER, stripe-transposed within pooling groups of size `reduction` (see
// the package comment), and appends them to dst padded to a whole index
// block (multiple of 16) by repeating the last stripe index (the padded
// outputs land beyond the consumed region and are ignored). Rows beyond the
// last whole group expand row-major; an empty row list appends nothing.
//
// Callers reuse a scratch buffer across requests (pass dst[:0] to
// overwrite it): the hot serving path expands every index list this way
// without allocating. When dst is non-empty its length must be a multiple
// of 16 so the padding of the appended expansion stays self-contained —
// that is how the pairwise-REDUCE path expands both operand halves into
// one buffer, each half padded exactly as a standalone expansion would be.
func ExpandIndicesInto(dst []int32, rows []int, reduction, stripes int) []int32 {
	if reduction <= 0 {
		reduction = 1
	}
	groups := len(rows) / reduction
	start := len(dst)
	for g := 0; g < groups; g++ {
		for s := 0; s < stripes; s++ {
			for j := 0; j < reduction; j++ {
				dst = append(dst, int32(rows[g*reduction+j]*stripes+s))
			}
		}
	}
	// Tail rows that do not fill a whole group expand row-major.
	for _, r := range rows[groups*reduction:] {
		for s := 0; s < stripes; s++ {
			dst = append(dst, int32(r*stripes+s))
		}
	}
	for (len(dst)-start)%isa.LanesPerBlock != 0 {
		pad := int32(0)
		if len(dst) > start {
			pad = dst[len(dst)-1]
		}
		dst = append(dst, pad)
	}
	return dst
}

// compileTable builds one table's program against an explicit scratch lane
// and output region: a GATHER (after the runtime loads the expanded index
// list into the lane's shared region) followed by the pooling pass, writing
// the pooled rows for table t at outBase + t*batch*embBytes. rows must hold
// batch x reduction valid indices (wire.Geometry.CheckRead).
//
// Pooling lowers as follows (Table 2 workloads):
//   - reduction == 1: GATHER directly into the output region;
//   - Mean pooling:   GATHER + one AVERAGE (Figure 9(c));
//   - 2-way reduce:   two GATHERs (group members split across the two
//     scratch operands) + one REDUCE with the configured operator;
//   - N-way non-mean reduce lowers to a REDUCE chain and is rejected here
//     (none of the paper's workloads need it).
func (d *Deployment) compileTable(t int, rows []int, batch int, ln *scratchLane, out uint64) (isa.Program, []int32, error) {
	cfg := d.model.Cfg
	outBase := (out + uint64(t)*d.outStride(batch)) / isa.BlockBytes
	tableBase := d.tableBase[t] / isa.BlockBytes
	idxBase := ln.idxBase / isa.BlockBytes
	k := uint32(d.stripes)

	switch {
	case cfg.Reduction == 1:
		ln.idx = ExpandIndicesInto(ln.idx[:0], rows, 1, d.stripes)
		ln.prog = append(ln.prog[:0],
			isa.Gather(tableBase, idxBase, outBase, uint32(len(ln.idx))))
		return ln.prog, ln.idx, nil

	case cfg.Mean:
		ln.idx = ExpandIndicesInto(ln.idx[:0], rows, cfg.Reduction, d.stripes)
		g := ln.gatherBase[0] / isa.BlockBytes
		ln.prog = append(ln.prog[:0],
			isa.Gather(tableBase, idxBase, g, uint32(len(ln.idx))),
			isa.Average(g, uint32(cfg.Reduction), outBase, uint32(batch)*k))
		return ln.prog, ln.idx, nil

	case cfg.Reduction == 2:
		// Split group members: even members then odd members, each
		// row-major, so REDUCE combines positionally. Both halves expand
		// into one scratch buffer — each padded independently, exactly as
		// two standalone expansions concatenated, but without the two
		// intermediate slices.
		ln.rowsA, ln.rowsB = ln.rowsA[:0], ln.rowsB[:0]
		for g := 0; g < batch; g++ {
			ln.rowsA = append(ln.rowsA, rows[2*g])
			ln.rowsB = append(ln.rowsB, rows[2*g+1])
		}
		ln.idx = ExpandIndicesInto(ln.idx[:0], ln.rowsA, 1, d.stripes)
		countA := uint32(len(ln.idx))
		ln.idx = ExpandIndicesInto(ln.idx, ln.rowsB, 1, d.stripes)
		ga := ln.gatherBase[0] / isa.BlockBytes
		gb := ln.gatherBase[1] / isa.BlockBytes
		ln.prog = append(ln.prog[:0],
			isa.Gather(tableBase, idxBase, ga, countA),
			isa.Gather(tableBase, idxBase+uint64(countA)/isa.LanesPerBlock, gb, countA),
			isa.Reduce(cfg.Op, ga, gb, outBase, uint32(batch)*k))
		return ln.prog, ln.idx, nil

	default:
		return nil, nil, fmt.Errorf("runtime: %d-way non-mean reduction not supported by TensorISA lowering", cfg.Reduction)
	}
}

// outStride returns the byte spacing between consecutive tables' segments
// of an output region for the given batch: the live rows plus the padding
// slack that absorbs GATHER's rounded-up index count.
func (d *Deployment) outStride(batch int) uint64 {
	return uint64(batch)*uint64(d.model.Cfg.EmbBytes()) + d.padSlack
}

// runTable executes one table's embedding stage on a scratch lane: compile,
// broadcast the index list into the lane's shared region, execute.
func (d *Deployment) runTable(ln *scratchLane, out uint64, t int, rows []int, batch int) error {
	prog, idx, err := d.compileTable(t, rows, batch, ln, out)
	if err != nil {
		return err
	}
	if err := d.Node.LoadIndices(ln.idxBase, idx); err != nil {
		return err
	}
	return d.Node.Execute(prog)
}

// RunEmbeddingInto executes the full embedding layer near-memory and
// writes the pooled, concatenated [batch, tables*dim] tensor (the data a
// GPU would copy back over NVLink) row-major into a caller-provided
// buffer, whose length must be exactly batch*tables*dim. Results are
// bit-identical to the golden model (Model.Embedding.Forward). It is the
// zero-allocation hot serving path: the caller owns dst for the duration
// of the call and may reuse it across calls; the deployment never retains
// a reference to it. The read is checked (wire.Geometry.CheckRead) before
// any instruction runs.
//
// The call acquires one execution slot for the whole batch (blocking if all
// slots are busy) and fans the per-table programs out across the free
// scratch lanes, so tables execute concurrently when the deployment was
// sized with more than one lane.
func (d *Deployment) RunEmbeddingInto(dst []float32, perTableRows [][]int, batch int) error {
	cfg := d.model.Cfg
	if err := d.geom.CheckRead(perTableRows, batch); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	if !d.gate.Enter() {
		return errReleased
	}
	defer d.gate.Exit()
	width := cfg.Tables * cfg.EmbDim
	if len(dst) != batch*width {
		return fmt.Errorf("runtime: destination holds %d floats, batch %d needs %d", len(dst), batch, batch*width)
	}
	slot := <-d.freeSlot
	defer func() { d.freeSlot <- slot }()
	out := d.outBase[slot]
	sc := &d.slots[slot]

	sc.wg.Add(cfg.Tables)
	for t := 0; t < cfg.Tables; t++ {
		j := &sc.jobs[t]
		j.t, j.rows, j.batch, j.out, j.err = t, perTableRows[t], batch, out, nil
		d.work <- j
	}
	sc.wg.Wait()
	for t := range sc.jobs {
		if err := sc.jobs[t].err; err != nil {
			return err
		}
	}

	// Read back each table's pooled segment directly into its column strip
	// of dst: row i of table t lands at dst[i*width + t*dim].
	embBytes := uint64(cfg.EmbBytes())
	for t := 0; t < cfg.Tables; t++ {
		base := out + uint64(t)*d.outStride(batch)
		for i := 0; i < batch; i++ {
			seg := dst[i*width+t*cfg.EmbDim : i*width+(t+1)*cfg.EmbDim]
			if err := d.Node.ReadFloatsInto(base+uint64(i)*embBytes, seg); err != nil {
				return err
			}
		}
	}
	return nil
}

// Infer runs a full inference with the embedding stage near-memory and the
// DNN stage on the (simulated) GPU: functionally identical to
// Model.Infer, with the pooled embedding tensor produced by the TensorNode
// (RunEmbeddingInto) into one fresh [batch, tables*dim] tensor.
func (d *Deployment) Infer(perTableRows [][]int, batch int) (*tensor.Tensor, error) {
	if err := d.geom.CheckRead(perTableRows, batch); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	x := tensor.New(batch, d.geom.Width())
	if err := d.RunEmbeddingInto(x.Data(), perTableRows, batch); err != nil {
		return nil, err
	}
	return d.model.InferFromEmbeddings(x)
}

// TableUpdate is one table's slice of an online update batch: gradient rows
// to accumulate into the table via near-memory SCATTER_ADD. Grads must be a
// [len(Rows), EmbDim] tensor; Rows may contain duplicates, which accumulate
// in order.
type TableUpdate struct {
	// Table is the target embedding table index.
	Table int
	// Rows lists the target row of each gradient (duplicates allowed).
	Rows []int
	// Grads holds one gradient row per entry of Rows.
	Grads *tensor.Tensor
}

// Check validates one update against g: Grads is a [len(Rows), Dim]
// tensor, and table and rows are a valid write (wire.Geometry.CheckRows).
func (up TableUpdate) Check(g wire.Geometry) error {
	if up.Grads == nil || up.Grads.Rank() != 2 || up.Grads.Dim(0) != len(up.Rows) || up.Grads.Dim(1) != g.Dim {
		return fmt.Errorf("gradient shape for %d rows of dim %d", len(up.Rows), g.Dim)
	}
	return g.CheckRows(up.Table, up.Rows, up.Grads.Len())
}

// CheckUpdates validates an update batch against g: at least one entry,
// and every entry passing TableUpdate.Check. Every entry point that takes
// updates runs it before anything executes, so an invalid entry leaves
// every table untouched.
func CheckUpdates(ups []TableUpdate, g wire.Geometry) error {
	if len(ups) == 0 {
		return fmt.Errorf("empty update batch")
	}
	for i, up := range ups {
		if err := up.Check(g); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	return nil
}

// ApplyUpdates applies a batch of per-table gradient updates near-memory:
// for every entry, table[Rows[i]] += Grads.Row(i) via SCATTER_ADD. The
// whole batch is validated before anything executes, so an invalid entry
// leaves every table untouched.
//
// Concurrency and ordering. The batch runs on the caller's goroutine, on
// the deployment's update lane, under the update lock: entries apply in
// slice order, and concurrent calls in lock acquisition order. Slice order
// is a total order containing every per-table order, and float
// accumulation is not associative, so this is what keeps each node table
// bit-identical to an oracle that accumulates the acknowledged updates in
// the same order (AccumulateGolden). Entries for distinct tables therefore
// apply one after another, not concurrently.
//
// An update races with concurrent inferences reading the same table —
// exactly as asynchronous training against a live serving replica would.
// Ordering between a racing read and update is per 64-byte block, one
// DIMM's share of a stripe (each NMP core runs a SCATTER_ADD alone, while
// gathers share the core): a read of a row may observe some blocks
// pre-update and some post, never a block half-written.
// Reads issued after ApplyUpdates returns observe the whole update;
// callers that need consistent snapshots during updates must quiesce
// first.
func (d *Deployment) ApplyUpdates(ups []TableUpdate) error {
	// The cap of maxBatch x reduction rows per entry also keeps scatterTable's
	// padded stripes within the update lane's scratch (idxCap, the gather
	// slack).
	if err := CheckUpdates(ups, d.geom); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	if !d.gate.Enter() {
		return errReleased
	}
	defer d.gate.Exit()
	d.updMu.Lock()
	defer d.updMu.Unlock()
	for _, up := range ups {
		if err := d.scatterTable(up); err != nil {
			return err
		}
	}
	return nil
}

// RestoreRows overwrites rows of table t with absolute values (vals holds
// len(rows) embeddings, row-major). It is the snapshot-install primitive of
// the durability plane: unlike ApplyUpdates it does not accumulate, so it
// can reseat a replica from a full-table snapshot without replaying the
// update history that produced it. Rows are written in slice order under the
// deployment's update lock, so a restore never lands inside an
// ApplyUpdates batch. It does not exclude concurrent reads: a caller
// serving reads holds its own barrier against gathers (serve.Server.Restore).
func (d *Deployment) RestoreRows(t int, rows []int, vals []float32) error {
	cfg := d.model.Cfg
	if err := d.geom.CheckRows(t, rows, len(vals)); err != nil {
		return fmt.Errorf("runtime: restore: %w", err)
	}
	if !d.gate.Enter() {
		return errReleased
	}
	defer d.gate.Exit()
	embBytes := uint64(cfg.EmbBytes())
	d.updMu.Lock()
	defer d.updMu.Unlock()
	for i, r := range rows {
		src := vals[i*cfg.EmbDim : (i+1)*cfg.EmbDim]
		if err := d.Node.WriteFloats(d.tableBase[t]+uint64(r)*embBytes, src); err != nil {
			return fmt.Errorf("runtime: restore row %d: %w", r, err)
		}
	}
	return nil
}

// AccumulateGolden applies one update to a host-side golden table in slice
// order: table[Rows[i]] += Grads.Row(i). It is the accumulation every
// oracle (tests, chaos, bench, examples) advances its own golden model
// with; float addition is order-sensitive, so a second implementation
// could silently break bit-identity.
func AccumulateGolden(table *embed.Table, up TableUpdate) {
	for i, r := range up.Rows {
		dst := table.Row(r)
		src := up.Grads.Row(i)
		for k := range dst {
			dst[k] += src[k]
		}
	}
}

// zeroLanes is one index block's worth of zero gradient elements, used to
// neutralize SCATTER_ADD padding without a per-update allocation.
var zeroLanes [isa.LanesPerBlock]float32

// scatterTable stages one validated table update into the update lane and
// executes its SCATTER_ADD program: gradients into the lane's staging
// buffer (the NVLink copy a training step would perform), expanded stripe
// indices into the lane's index region, then one near-memory accumulate.
// The caller holds updMu.
func (d *Deployment) scatterTable(up TableUpdate) error {
	ln := d.upd
	// Stage gradients into the lane's staging buffer, row-major.
	embBytes := uint64(d.model.Cfg.EmbBytes())
	for i := 0; i < len(up.Rows); i++ {
		if err := d.Node.WriteFloats(ln.gatherBase[0]+uint64(i)*embBytes, up.Grads.Row(i)); err != nil {
			return fmt.Errorf("runtime: stage gradient %d: %w", i, err)
		}
	}
	ln.idx = ExpandIndicesInto(ln.idx[:0], up.Rows, 1, d.stripes)
	idx := ln.idx
	if err := d.Node.LoadIndices(ln.idxBase, idx); err != nil {
		return err
	}
	// Padding repeats the last stripe index; compensate by staging zero
	// gradients for the padded slots so the extra accumulations are no-ops.
	realStripes := len(up.Rows) * d.stripes
	stripeBytes := d.Node.StripeBytes()
	for s := realStripes; s < len(idx); s++ {
		for off := uint64(0); off < stripeBytes; off += 64 {
			if err := d.Node.WriteFloats(ln.gatherBase[0]+uint64(s)*stripeBytes+off, zeroLanes[:]); err != nil {
				return err
			}
		}
	}
	prog := isa.Program{
		isa.ScatterAdd(d.tableBase[up.Table]/isa.BlockBytes, ln.idxBase/isa.BlockBytes,
			ln.gatherBase[0]/isa.BlockBytes, uint32(len(idx))),
	}
	return d.Node.Execute(prog)
}
