package main

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/runtime"
)

// serialDigest is what the serial pass measured with one request in flight.
type serialDigest struct {
	reads       int
	clientP50Ns float64 // caller-observed read latency
	seamP50Ns   float64 // the front server's backend call (0 in-process)
}

// serialPass is part (a) of the traced run: one caller, one request in
// flight, whole spans kept. Child spans nest by time, so parents are exact
// and self time is duration minus children; the spans go to
// <out>/<workload>.trace.json.
func (st *stack) serialPass(e *env, rep *report, box time.Duration, out results, log io.Writer) (serialDigest, error) {
	d, tr := st.def, e.tracer
	embed := st.embed
	var update func([]runtime.TableUpdate) error
	if st.addr != "" {
		cl, err := st.dial()
		if err != nil {
			return serialDigest{}, err
		}
		defer cl.Close()
		embed, update = cl.EmbedInto, cl.Update
	}
	tr.reset()
	tr.spansOn.Store(true)
	dst := make([]float32, d.batch*st.width())
	var walGrowth []float64
	n := 0
	for begin := time.Now(); n < probeIters && (n < 64 || time.Since(begin) < box); n++ {
		start := time.Now()
		_, err := embed(dst, st.feed[n%len(st.feed)], d.batch)
		tr.record(spanClientEmbed, start, time.Now())
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("serial read %d: %v", n, err)
			break
		}
		if d.updHz == 0 || n%16 != 15 {
			continue
		}
		var wal int64
		if st.router != nil {
			wal = st.router.Metrics().WALBytes
		}
		start = time.Now()
		ups := st.updates[(n/16)%len(st.updates)]
		err = update(ups)
		tr.record(spanClientUpdate, start, time.Now())
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("serial update: %v", err)
			break
		}
		if st.onAck != nil {
			st.onAck(ups)
		}
		if st.router != nil {
			// A snapshot trims the WAL; only growth prices an append.
			if grew := st.router.Metrics().WALBytes - wal; grew > 0 {
				walGrowth = append(walGrowth, float64(grew))
			}
		}
	}
	tr.spansOn.Store(false)
	kept := min(tr.nspans.Load(), int64(len(tr.spans)))
	spans := linkSpans(append([]span(nil), tr.spans[:kept]...))
	self := selfTimes(spans)

	var client, seam, overhead, router []uint32
	for _, s := range spans {
		dur := uint32(s.EndNs - s.StartNs)
		switch s.kind {
		case spanClientEmbed:
			client = append(client, dur)
			overhead = append(overhead, uint32(self[s.Span]))
		case spanClusterEmbed:
			seam = append(seam, dur)
		case spanRemoteEmbed:
			seam = append(seam, dur)
			router = append(router, uint32(self[s.Span]))
		}
	}
	for _, s := range [][]uint32{client, seam, overhead, router} {
		slices.Sort(s)
	}
	if st.front != nil {
		// Client span minus the backend-seam span under it: wire, netclient,
		// kernel, netserve admission, executor hand-off and flush.
		out["netserve.overhead_p50_us"] = pctUs(overhead, 50)
		out["netserve.overhead_p90_us"] = pctUs(overhead, 90)
	}
	if st.router != nil {
		// Router span minus the replica spans under it: routing, dispatch,
		// the hop to each replica and the merge.
		out["remote.router_overhead_p50_us"] = pctUs(router, 50)
		if len(walGrowth) > 0 {
			out["remote.wal_bytes_per_update"] = median(walGrowth)
		}
	}
	path, err := writeTrace(e.outDir, traceFile{
		Workload: d.name, Seed: e.seed, Spans: spans,
		Note: "serial pass: one request in flight, so parents are assigned by time nesting (the wire carries no trace id); self time = duration - children",
	})
	if err != nil {
		return serialDigest{}, err
	}
	fmt.Fprintf(log, "# serial pass: %d reads, %d spans -> %s\n", n, len(spans), path)
	return serialDigest{reads: n, clientP50Ns: percentile(client, 50), seamP50Ns: percentile(seam, 50)}, nil
}

// probeTarget picks the node stack the serve/runtime/node probes run on and
// the read that node sees under this workload. inproc_gather probes its own
// node with its own reads; the sharded stacks probe one shard with a
// shard-shaped sub-request (flat table, reduction 1, the rows of one read
// that land on it). The in-process cluster keeps its shards private, so the
// same shard is built once more beside it.
func (st *stack) probeTarget(e *env) (sh *shardStack, rows [][]int, batch int, done func(), err error) {
	d := st.def
	if st.local != nil {
		return st.local, st.feed[0], d.batch, func() {}, nil
	}
	done = func() {}
	if len(st.replicas) > 0 {
		sh = st.replicas[0]
	} else {
		if sh, err = buildReplica(e, d, 0); err != nil {
			return nil, nil, 0, nil, err
		}
		done = sh.close
	}
	p := cluster.NewPlacement(cluster.TableWise, shards, d.model.Tables, d.model.TableRows)
	batch = p.TablesOn(0) * d.batch * d.model.Reduction
	rng := rand.New(rand.NewSource(e.seed*7919 + 5))
	flat := make([]int, batch)
	for i := range flat {
		flat[i] = rng.Intn(p.LocalRows(0))
	}
	return sh, [][]int{flat}, batch, done, nil
}

// runTraced produces the per-layer ledger. It never reports an end-to-end
// metric: (a) a serial pass with whole spans, (b) the workload's own load
// with the seam wrappers aggregating, beside the same load with them idle,
// (c) each layer's public entry point called directly from one goroutine.
func runTraced(e *env, d *workloadDef, seconds int, log io.Writer) (*report, error) {
	rep := &report{workload: d.name, traced: true, metrics: results{}}
	out := rep.metrics
	e.tracer = newTracer()
	tr := e.tracer

	out["harness.calib_cpu_ns"] = calibCPU()
	rtt, err := calibLoopback()
	if err != nil {
		return nil, fmt.Errorf("loopback calibration: %w", err)
	}
	out["harness.calib_loopback_rtt_us"] = rtt

	var tally verifyTally
	st, _, err := setUp(e, d, &tally)
	if err != nil {
		return nil, err
	}
	defer st.close()

	// (b) Loaded passes. The wire carries no trace id, so under load client
	// and backend spans cannot be joined: aggregates only.
	loaded := max(1, seconds*35/100)
	recs, wlat := newRecorders(d, loaded)
	plain, err := st.measure(rep, recs, wlat, out)
	if err != nil {
		return nil, err
	}
	tr.reset()
	tr.aggOn.Store(true)
	traced, err := st.measure(rep, recs, wlat, nil)
	tr.aggOn.Store(false)
	if err != nil {
		return nil, err
	}
	if plain.reqPerS() > 0 {
		out["harness.trace_overhead_frac"] = 1 - traced.reqPerS()/plain.reqPerS()
	}
	fmt.Fprintf(log, "# loaded passes: %ds each, %.0f req/s with the seams idle, %.0f recording (aggregates only: no trace id on the wire)\n",
		loaded, plain.reqPerS(), traced.reqPerS())
	if st.cluster != nil {
		s := tr.sortedSamples(spanClusterEmbed)
		out["cluster.embed_p50_us"], out["cluster.embed_p90_us"] = pctUs(s, 50), pctUs(s, 90)
		out["cluster.concurrency_mean"] = float64(tr.kinds[spanClusterEmbed].sumNs.Load()) / (traced.seconds * 1e9)
		if u := tr.sortedSamples(spanClusterUpdate); len(u) > 0 {
			out["cluster.apply_updates_p50_us"] = pctUs(u, 50)
		}
	}
	if st.router != nil {
		out["remote.embed_p50_us"] = pctUs(tr.sortedSamples(spanRemoteEmbed), 50)
		out["remote.replica_embed_p50_us"] = pctUs(tr.sortedSamples(spanReplicaEmbed), 50)
		out["remote.apply_updates_p50_us"] = pctUs(tr.sortedSamples(spanRemoteUpdate), 50)
	}

	// (a) Serial pass.
	serial, err := st.serialPass(e, rep, time.Duration(seconds)*time.Second*15/100, out, log)
	if err != nil {
		return nil, err
	}

	if err := st.verify(e, "quiescence", &tally); err != nil {
		return nil, err
	}
	out["harness.verify_checked"] = float64(tally.checked)
	out["harness.verify_mismatch"] = float64(tally.mismatch)
	if tally.mismatch > 0 {
		rep.fail("%d of %d verified replies differ from the golden model; first: %s", tally.mismatch, tally.checked, tally.first)
	}

	// (c) Probes, after the last verification: some of them write.
	box := time.Duration(seconds) * time.Second / 100
	probeWire(st, box, out)
	attributed := 0.0 // of the serial read's median, in ns
	if st.addr != "" {
		cl, err := st.dial()
		if err != nil {
			return nil, err
		}
		var perr error
		ping := timeMedian(1, box, func() {
			if e := cl.Ping(); e != nil {
				perr = e
			}
		})
		cl.Close()
		if perr != nil {
			return nil, fmt.Errorf("ping probe: %w", perr)
		}
		out["netclient.ping_rtt_us"] = ping / 1e3
		attributed = ping + out["wire.embed_req_codec_ns"] + out["wire.embed_resp_codec_ns"] + serial.seamP50Ns
	}
	if st.cluster != nil {
		dst := make([]float32, d.batch*st.width())
		var perr error
		at := 0
		out["cluster.embed_direct_us"] = timeMedian(1, box, func() {
			if _, e := st.cluster.EmbedInto(dst, st.feed[at%len(st.feed)], d.batch); e != nil {
				perr = e
			}
			at++
		}) / 1e3
		if perr != nil {
			return nil, fmt.Errorf("cluster probe: %w", perr)
		}
	}
	sh, rows, batch, done, err := st.probeTarget(e)
	if err != nil {
		return nil, err
	}
	err = probeShard(sh, rows, batch, box, out)
	done()
	if err != nil {
		return nil, fmt.Errorf("serve/runtime probe: %w", err)
	}
	if st.local != nil {
		attributed = (out["runtime.run_embedding_us"] + out["serve.batcher_overhead_us"]) * 1e3
	}
	if err := probeNode(sh.model.Cfg, batch, box, out); err != nil {
		return nil, fmt.Errorf("node probe: %w", err)
	}
	probeCore(sh.model.Cfg, batch, out)
	out["node.emulation_slowdown_x"] = out["node.execute_us"] / out["core.sim_embed_us"]
	if st.router != nil {
		if err := probePersist(st, e, out); err != nil {
			return nil, fmt.Errorf("persist probe: %w", err)
		}
	}
	if serial.clientP50Ns > 0 {
		// What the named layers on the serial read's blocking path do not
		// account for.
		out["harness.unattributed_frac"] = 1 - attributed/serial.clientP50Ns
	}
	return rep, nil
}
