package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/core"
	"tensordimm/internal/isa"
	"tensordimm/internal/node"
	"tensordimm/internal/persist"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

const probeIters = 2000

// timeMedian times f — `inner` calls per sample — until probeIters samples
// are in or the time box is spent (three samples at least), and returns the
// median nanoseconds per call. A probe runs on one goroutine against an
// otherwise idle process.
func timeMedian(inner int, box time.Duration, f func()) float64 {
	samples := make([]float64, 0, probeIters)
	for begin := time.Now(); len(samples) < probeIters && (len(samples) < 3 || time.Since(begin) < box); {
		start := time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		samples = append(samples, float64(time.Since(start))/float64(inner))
	}
	return median(samples)
}

var sink uint64

// calibCPU is the fixed pure-CPU kernel of the box-drift record: 65536
// xorshift steps, no memory traffic.
func calibCPU() float64 {
	return timeMedian(1, 200*time.Millisecond, func() {
		x := uint64(88172645463325252)
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
	})
}

// calibLoopback is the other half of the box-drift record: a raw 64-byte
// TCP ping-pong on loopback, median round trip in microseconds.
func calibLoopback() (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 64)
	var perr error
	ns := timeMedian(1, 500*time.Millisecond, func() {
		if _, err := c.Write(buf); err != nil {
			perr = err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			perr = err
		}
	})
	c.Close()
	<-done
	return ns / 1e3, perr
}

// probeWire times the codecs on the workload's own shapes: one read of the
// workload's batch, one updRows-row update.
func probeWire(st *stack, box time.Duration, out results) {
	mc := st.def.model
	g := wire.Geometry{Tables: mc.Tables, Reduction: mc.Reduction, Dim: mc.EmbDim, TableRows: mc.TableRows, MaxBatch: maxBatch}
	rows, batch := st.feed[0], st.def.batch
	var (
		buf  []byte
		dRow [][]int
		dIdx []int
		err  error
	)
	out["wire.embed_req_codec_ns"] = timeMedian(16, box, func() {
		buf = wire.AppendEmbed(buf[:0], 1, 0, rows, batch, mc.Reduction)
		if _, _, dRow, dIdx, err = wire.DecodeEmbed(buf[wire.HeaderBytes:], g, dRow, dIdx); err != nil {
			panic(err) // a bug: the encoder's own output
		}
	})
	out["wire.embed_req_bytes"] = float64(len(buf))

	vals := make([]float32, batch*st.width())
	dst := make([]float32, len(vals))
	out["wire.embed_resp_codec_ns"] = timeMedian(16, box, func() {
		buf = wire.AppendEmbedResp(buf[:0], 1, vals)
		if err = wire.DecodeEmbedResp(buf[wire.HeaderBytes:], dst); err != nil {
			panic(err)
		}
	})
	out["wire.embed_resp_bytes"] = float64(len(buf))

	up := probeUpdate(mc.EmbDim, mc.TableRows)
	wu := []wire.Update{{Table: up.Table, Rows: up.Rows, Grads: up.Grads.Data()}}
	var scratch wire.UpdateScratch
	out["wire.update_codec_ns"] = timeMedian(16, box, func() {
		buf = wire.AppendUpdate(buf[:0], 1, 0, wu)
		if _, _, err = wire.DecodeUpdate(buf[wire.HeaderBytes:], g, &scratch); err != nil {
			panic(err)
		}
	})
	out["wire.sync_codec_ns"] = timeMedian(16, box, func() {
		buf = wire.AppendSync(buf[:0], 1, 7, wu)
		if _, _, err = wire.DecodeSync(buf[wire.HeaderBytes:], g, &scratch); err != nil {
			panic(err)
		}
	})
}

// probeUpdate is the fixed update shape of the probes: updRows rows of
// table 0, spread over the table.
func probeUpdate(dim, tableRows int) runtime.TableUpdate {
	up := runtime.TableUpdate{Table: 0, Grads: tensor.New(updRows, dim)}
	for i := 0; i < updRows; i++ {
		up.Rows = append(up.Rows, (i*2654435761)%tableRows)
	}
	return up
}

// probeShard calls serve and runtime directly on one node's stack with the
// read shape that node sees under the workload, and derives the batcher's
// share. It mutates the node's tables (updates), so it runs after the last
// verification.
func probeShard(sh *shardStack, rows [][]int, batch int, box time.Duration, out results) error {
	mc := sh.model.Cfg
	dst := make([]float32, batch*mc.Tables*mc.EmbDim)
	var err error
	serveNs := timeMedian(1, box, func() {
		if _, e := sh.srv.EmbedInto(dst, rows, batch); e != nil {
			err = e
		}
	})
	runNs := timeMedian(1, box, func() {
		if e := sh.dep.RunEmbeddingInto(dst, rows, batch); e != nil {
			err = e
		}
	})
	up := []runtime.TableUpdate{probeUpdate(mc.EmbDim, mc.TableRows)}
	out["serve.update_direct_us"] = timeMedian(1, box, func() {
		if e := sh.srv.Update(up); e != nil {
			err = e
		}
	}) / 1e3
	out["runtime.apply_updates_us"] = timeMedian(1, box, func() {
		if e := sh.dep.ApplyUpdates(up); e != nil {
			err = e
		}
	}) / 1e3
	var idx []int32
	out["runtime.expand_indices_ns"] = timeMedian(16, box, func() {
		idx = runtime.ExpandIndicesInto(idx[:0], rows[0], mc.Reduction, sh.dep.Stripes())
	})
	out["serve.embed_direct_us"] = serveNs / 1e3
	out["runtime.run_embedding_us"] = runNs / 1e3
	out["serve.batcher_overhead_us"] = (serveNs - runNs) / 1e3
	return err
}

// probeNode programs a TensorNode directly with TensorISA, the way
// examples/nmpoffload does: one table, an index region, gather scratch and
// an output region from Alloc, and per read the GATHER(+GATHER+REDUCE)
// program of the workload's shape once per table. Counts come from
// Node.Stats() and repeat exactly; bytes are computed from tensor sizes.
func probeNode(mc recsys.Config, batch int, box time.Duration, out results) error {
	if mc.Reduction > 2 || mc.Mean {
		return fmt.Errorf("node probe: %d-way/mean pooling not lowered here", mc.Reduction)
	}
	emb := uint64(mc.EmbBytes())
	n := uint64(batch * mc.Reduction)
	region := n*emb + 64<<10
	need := uint64(mc.TableRows)*emb + 4*region
	nd, err := node.New(node.Config{DIMMs: dimms, PerDIMMBytes: ((need+need/4)/dimms + 4095) / 4096 * 4096})
	if err != nil {
		return err
	}
	defer nd.Close()
	stripes := int(emb / nd.StripeBytes())
	table, err := nd.Alloc(uint64(mc.TableRows) * emb)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	row := make([]float32, mc.EmbDim)
	for r := 0; r < mc.TableRows; r++ {
		for i := range row {
			row[i] = rng.Float32()
		}
		if err := nd.WriteFloats(table+uint64(r)*emb, row); err != nil {
			return err
		}
	}
	idxBase := nd.ReserveIndexRegion(uint64(int(n)*stripes+2*isa.LanesPerBlock) * 4)
	var bases [3]uint64 // gather A, gather B, output
	for i := range bases {
		if bases[i], err = nd.Alloc(region); err != nil {
			return err
		}
	}
	ga, gb, outB := bases[0]/isa.BlockBytes, bases[1]/isa.BlockBytes, bases[2]/isa.BlockBytes

	// The same lowering runtime.compileTable performs.
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(mc.TableRows)
	}
	var idx []int32
	var prog isa.Program
	if mc.Reduction == 1 {
		idx = runtime.ExpandIndicesInto(nil, rows, 1, stripes)
		prog = isa.Program{isa.Gather(table/isa.BlockBytes, idxBase/isa.BlockBytes, outB, uint32(len(idx)))}
	} else {
		var a, b []int
		for g := 0; g < batch; g++ {
			a, b = append(a, rows[2*g]), append(b, rows[2*g+1])
		}
		idx = runtime.ExpandIndicesInto(nil, a, 1, stripes)
		half := uint32(len(idx))
		idx = runtime.ExpandIndicesInto(idx, b, 1, stripes)
		prog = isa.Program{
			isa.Gather(table/isa.BlockBytes, idxBase/isa.BlockBytes, ga, half),
			isa.Gather(table/isa.BlockBytes, idxBase/isa.BlockBytes+uint64(half)/isa.LanesPerBlock, gb, half),
			isa.Reduce(mc.Op, ga, gb, outB, uint32(batch*stripes)),
		}
	}
	if err := nd.LoadIndices(idxBase, idx); err != nil {
		return err
	}
	before, reads := nd.Stats(), 0
	execNs := timeMedian(1, box, func() {
		for t := 0; t < mc.Tables; t++ {
			if e := nd.Execute(prog); e != nil {
				err = e
			}
		}
		reads++
	})
	if err != nil {
		return err
	}
	after := nd.Stats()
	pooled := make([]float32, mc.EmbDim)
	out["node.read_floats_us"] = timeMedian(1, box, func() {
		for i := 0; i < batch*mc.Tables; i++ {
			if e := nd.ReadFloatsInto(bases[2]+uint64(i%batch)*emb, pooled); e != nil {
				err = e
			}
		}
	}) / 1e3
	out["node.execute_us"] = execNs / 1e3
	out["node.gather_mb_per_s"] = float64(mc.GatheredBytes(batch)) / 1e6 / (execNs / 1e9)
	out["node.blocks_read_per_req"] = float64(after.BlocksRead-before.BlocksRead) / float64(reads)
	out["node.instructions_per_req"] = float64(after.Instructions-before.Instructions) / float64(reads)
	return err
}

// probeCore asks the paper's analytic model what the modelled TensorDIMM
// hardware would take for the same embedding stage. Simulated time: it is
// deterministic and is never a host measurement.
func probeCore(mc recsys.Config, batch int, out results) {
	p := core.DefaultPlatform()
	out["core.sim_embed_us"] = core.Simulate(core.TDIMM, mc, batch, p).LookupS * 1e6
	out["core.sim_tdimm_speedup_x"] = core.Speedup(core.TDIMM, core.CPUOnly, mc, batch, p)
}

// probePersist prices the durability plane on the fleet's shard geometry: a
// 256-entry log of updRows-row updates, one snapshot install, one recovery.
func probePersist(st *stack, e *env, out results) error {
	mc := st.def.model
	p := cluster.NewPlacement(cluster.TableWise, shards, mc.Tables, mc.TableRows)
	dir, err := os.MkdirTemp(e.outDir, "persist-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := persist.Config{Dir: dir, Shard: 0, Dim: mc.EmbDim, LocalRows: p.LocalRows(0),
		MaxRowsPerEntry: p.MaxSub(0, maxBatch, mc.Reduction)}
	fill := func(l *persist.ShardLog, times *[]float64) error {
		for i := 0; i < persist.DefaultSnapshotEvery; i++ {
			up := probeUpdate(mc.EmbDim, cfg.LocalRows) // the log takes ownership
			start := time.Now()
			if err := l.Append(up); err != nil {
				return err
			}
			if times != nil {
				*times = append(*times, float64(time.Since(start)))
			}
		}
		return nil
	}
	l, err := persist.Open(cfg)
	if err != nil {
		return err
	}
	var appends []float64
	if err := fill(l, &appends); err != nil {
		l.Close()
		return err
	}
	out["persist.append_us"] = median(appends) / 1e3
	out["persist.append_bytes"] = float64(l.WALBytes()) / float64(len(appends))
	start := time.Now()
	if err := l.InstallSnapshot(l.Head(), make([]float32, cfg.LocalRows*cfg.Dim)); err != nil {
		l.Close()
		return err
	}
	out["persist.snapshot_install_ms"] = float64(time.Since(start)) / 1e6
	if err := fill(l, nil); err != nil {
		l.Close()
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	// Recovery: load the snapshot, replay 256 WAL entries over it.
	start = time.Now()
	l, err = persist.Open(cfg)
	if err != nil {
		return err
	}
	out["persist.recover_ms"] = float64(time.Since(start)) / 1e6
	if got := l.Head(); got != 2*persist.DefaultSnapshotEvery {
		l.Close()
		return fmt.Errorf("persist probe: recovered head %d, want %d", got, 2*persist.DefaultSnapshotEvery)
	}
	return l.Close()
}

// pctUs is the p-th percentile of sorted nanosecond samples, in microseconds.
func pctUs(sorted []uint32, p float64) float64 { return percentile(sorted, p) / 1e3 }
