package netserve_test

import (
	"bytes"
	"math/rand"
	"net"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
)

// coalesceModelCfg is the real-model geometry for the coalescing
// equivalence tests: dim 64 = one stripe on a 4-DIMM node, 301 rows so
// row-wise shard boundaries are uneven.
func coalesceModelCfg() recsys.Config {
	return recsys.Config{
		Name: "coalesce-test", Tables: 2, Reduction: 2, FCLayers: 1,
		EmbDim: 64, TableRows: 301, Hidden: []int{8},
	}
}

// startClusterServer fronts a real 2-shard cluster with a netserve.Server
// — the stack the coalescing paths must keep bit-identical to the golden
// model the cluster was built from.
func startClusterServer(t *testing.T, strat cluster.Strategy, cfg netserve.Config) (*recsys.Model, *netserve.Server, string) {
	t.Helper()
	m, err := recsys.Build(coalesceModelCfg(), 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(m, cluster.Config{
		Nodes: 2, DIMMsPerNode: 4, MaxBatch: 16,
		CacheBytes: 64 << 10, Strategy: strat,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv, addr := startServer(t, netserve.ClusterBackend(c), cfg)
	return m, srv, addr
}

// randBatchRows draws one embed request against the real-model geometry.
func randBatchRows(rng *rand.Rand, mc recsys.Config, batch int) [][]int {
	rows := make([][]int, mc.Tables)
	for t := range rows {
		rows[t] = make([]int, batch*mc.Reduction)
		for i := range rows[t] {
			rows[t][i] = rng.Intn(mc.TableRows)
		}
	}
	return rows
}

// gradUpdate draws one single-table gradient update; zero=true yields a
// bit-identity-preserving no-op update (x + 0.0 == x for the non-zero
// float32 values a seeded build produces), so it can fly concurrently
// with golden-checked reads.
func gradUpdate(rng *rand.Rand, mc recsys.Config, maxBatch int, zero bool) runtime.TableUpdate {
	n := 1 + rng.Intn(maxBatch*mc.Reduction-1)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(mc.TableRows)
	}
	grads := tensor.New(n, mc.EmbDim)
	if !zero {
		g := grads.Data()
		for i := range g {
			g[i] = rng.Float32() - 0.5
		}
	}
	return runtime.TableUpdate{Table: rng.Intn(mc.Tables), Rows: rows, Grads: grads}
}

// goldenReq is one pre-planned embed request with its expected output,
// computed serially against the golden model before the concurrent phase
// fires (the cluster's update write-through mutates the golden tables, so
// golden forwards must never race in-flight updates).
type goldenReq struct {
	rows  [][]int
	batch int
	want  []float32
}

// TestCoalescedMixedTrafficBitIdentical drives concurrent EMBED and
// UPDATE traffic through one shared connection — the topology that makes
// the client's group-commit buffer and the server's response writer
// coalesce frames — and checks every read bit-identical against the
// golden model, for both sharding strategies. Real gradient updates are
// serialized between read rounds (concurrent writes to read rows have no
// defined interleaving); the concurrent updates are zero-gradient, so
// they exercise the mixed-op coalescing path without perturbing values.
func TestCoalescedMixedTrafficBitIdentical(t *testing.T) {
	for _, strat := range []cluster.Strategy{cluster.TableWise, cluster.RowWise} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			m, srv, addr := startClusterServer(t, strat, netserve.Config{})
			cl := dialClient(t, addr, netclient.Config{Conns: 1})
			rng := rand.New(rand.NewSource(9))
			for round := 0; round < 3; round++ {
				// Plan this round's requests and their golden answers while
				// nothing is in flight.
				plans := make([][]goldenReq, 6)
				for g := range plans {
					plans[g] = make([]goldenReq, 12)
					for i := range plans[g] {
						batch := 1 + rng.Intn(4)
						rows := randBatchRows(rng, m.Cfg, batch)
						want, err := m.Embedding.Forward(rows, batch)
						if err != nil {
							t.Fatal(err)
						}
						plans[g][i] = goldenReq{rows: rows, batch: batch,
							want: append([]float32(nil), want.Data()...)}
					}
				}

				var wg sync.WaitGroup
				for g := range plans {
					wg.Add(1)
					go func(reqs []goldenReq) {
						defer wg.Done()
						var dst []float32
						for _, rq := range reqs {
							got, err := cl.EmbedInto(dst, rq.rows, rq.batch)
							if err != nil {
								t.Errorf("embed: %v", err)
								return
							}
							dst = got
							for k, w := range rq.want {
								if got[k] != w {
									t.Errorf("value %d: net %v != golden %v", k, got[k], w)
									return
								}
							}
						}
					}(plans[g])
				}
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for i := 0; i < 8; i++ {
						up := gradUpdate(r, m.Cfg, 16, true)
						if err := cl.Update([]runtime.TableUpdate{up}); err != nil {
							t.Errorf("concurrent update: %v", err)
							return
						}
					}
				}(rng.Int63())
				wg.Wait()
				if t.Failed() {
					return
				}

				// A real update lands between rounds, so later rounds read
				// evolved state; the cluster's write-through keeps the golden
				// model current, no separate accumulation needed.
				up := gradUpdate(rng, m.Cfg, 16, false)
				if err := cl.Update([]runtime.TableUpdate{up}); err != nil {
					t.Fatalf("serialized update: %v", err)
				}
			}
			sm := srv.Metrics()
			t.Logf("coalescing under mixed traffic: %d reqs in %d BATCHes, %d resps in %d BATCHes",
				sm.BatchedIn, sm.BatchesIn, sm.BatchedOut, sm.BatchesOut)
		})
	}
}

// readEmbedResponses drains frames until `want` embed responses have
// arrived, transparently unwrapping coalesced BATCH frames, and returns
// the response payloads by request id.
func readEmbedResponses(t *testing.T, nc net.Conn, want int) map[uint64][]byte {
	t.Helper()
	got := make(map[uint64][]byte, want)
	keep := func(op wire.Op, id uint64, payload []byte) {
		if op != wire.OpEmbedResp {
			t.Fatalf("op %d for request %d, want EMBED_RESP", op, id)
		}
		got[id] = append([]byte(nil), payload...)
	}
	var buf []byte
	for len(got) < want {
		var op wire.Op
		var id uint64
		var payload []byte
		var err error
		op, id, payload, buf, err = wire.ReadFrame(nc, buf, 0)
		if err != nil {
			t.Fatalf("reading responses: %v", err)
		}
		if op != wire.OpBatch {
			keep(op, id, payload)
			continue
		}
		it, err := wire.DecodeBatch(payload)
		if err != nil {
			t.Fatalf("decoding BATCH response: %v", err)
		}
		for {
			subOp, subID, subPayload, ok := it.Next()
			if !ok {
				break
			}
			keep(subOp, subID, subPayload)
		}
		if err := it.Err(); err != nil {
			t.Fatalf("corrupt BATCH response: %v", err)
		}
	}
	return got
}

// TestBatchSplitBitIdenticalToUnbatched pins the coalescing equivalence
// at the wire level: the same embed requests answered through one BATCH
// super-frame carry byte-identical response payloads to the plain
// one-frame-per-request path, against a real sharded cluster.
func TestBatchSplitBitIdenticalToUnbatched(t *testing.T) {
	m, srv, addr := startClusterServer(t, cluster.TableWise, netserve.Config{})
	rng := rand.New(rand.NewSource(17))

	const k = 5
	frames := make([][]byte, k)
	for i := range frames {
		batch := 1 + rng.Intn(4)
		frames[i] = wire.AppendEmbed(nil, uint64(100+i), 0, randBatchRows(rng, m.Cfg, batch), batch, m.Cfg.Reduction)
	}

	// Plain path: one request in flight at a time, one frame per response.
	plain, _ := rawDial(t, addr)
	plainResp := make(map[uint64][]byte, k)
	for i, f := range frames {
		op, id, payload := rawCall(t, plain, f)
		if op != wire.OpEmbedResp || id != uint64(100+i) {
			t.Fatalf("plain request %d answered op %d id %d", i, op, id)
		}
		plainResp[id] = append([]byte(nil), payload...)
	}

	// Coalesced path: all k requests ride one BATCH super-frame.
	batched, _ := rawDial(t, addr)
	super := wire.AppendBatch(nil, 7, frames...)
	if _, err := batched.Write(super); err != nil {
		t.Fatal(err)
	}
	batchResp := readEmbedResponses(t, batched, k)

	for id, want := range plainResp {
		if !bytes.Equal(batchResp[id], want) {
			t.Fatalf("request %d: batched response differs from plain response", id)
		}
	}
	sm := srv.Metrics()
	if sm.BatchesIn < 1 || sm.BatchedIn < k {
		t.Fatalf("server metrics counted %d sub-requests in %d BATCHes, want >=%d in >=1",
			sm.BatchedIn, sm.BatchesIn, k)
	}
}

// TestBatchDrainCompletesSubRequests pins graceful drain for coalesced
// requests: every sub-request of a BATCH in flight when Close begins is
// answered before the connection dies — none are silently dropped.
func TestBatchDrainCompletesSubRequests(t *testing.T) {
	const k = 4
	b := newStub()
	b.entered = make(chan struct{}, k)
	b.release = make(chan struct{})
	srv, addr := startServer(t, b, netserve.Config{})
	nc, _ := rawDial(t, addr)
	g := srv.Geometry()

	frames := make([][]byte, k)
	for i := range frames {
		frames[i] = wire.AppendEmbed(nil, uint64(i+1), 0, reqRows(g, 1, i), 1, g.Reduction)
	}
	if _, err := nc.Write(wire.AppendBatch(nil, 9, frames...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		<-b.entered // every sub-request is executing in the backend
	}

	closeDone := make(chan struct{})
	go func() { srv.Close(); close(closeDone) }()
	select {
	case <-closeDone:
		t.Fatal("Close returned with BATCH sub-requests in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(b.release)
	resp := readEmbedResponses(t, nc, k)
	for i := 1; i <= k; i++ {
		if _, ok := resp[uint64(i)]; !ok {
			t.Fatalf("sub-request %d of the in-flight BATCH was dropped during drain", i)
		}
	}
	<-closeDone
}

// checkStubResponse decodes one single-sample EMBED_RESP payload and
// compares it with the stub backend's value for reqRows(g, 1, seed).
func checkStubResponse(t *testing.T, g wire.Geometry, payload []byte, seed int) {
	t.Helper()
	got := make([]float32, g.Width())
	if err := wire.DecodeEmbedResp(payload, got); err != nil {
		t.Fatalf("request seeded %d: %v", seed, err)
	}
	rows := reqRows(g, 1, seed)
	for tt := 0; tt < g.Tables; tt++ {
		for k := 0; k < g.Dim; k++ {
			if want := stubValue(rows, g.Reduction, tt, 0, k); got[tt*g.Dim+k] != want {
				t.Fatalf("request seeded %d, table %d elem %d: %v, want %v", seed, tt, k, got[tt*g.Dim+k], want)
			}
		}
	}
}

// embedBatch is one BATCH frame of k single-sample embeds with ids
// 1..k, request i seeded with i.
func embedBatch(g wire.Geometry, k int) []byte {
	frames := make([][]byte, k)
	for i := range frames {
		frames[i] = wire.AppendEmbed(nil, uint64(i+1), 0, reqRows(g, 1, i+1), 1, g.Reduction)
	}
	return wire.AppendBatch(nil, 99, frames...)
}

// TestResponsesCoalesceBehindBlockedWrite pins the server-side group
// commit: responses that complete while the writer is parked in a Write
// leave together in coalesced BATCH frames once the client reads, not one
// syscall each. Over net.Pipe a Write only returns when the peer has read
// every byte, so with the client not reading the writer is stuck on its
// first flush and everything else queues behind it. MaxInflight k means
// exactly k executors; a second wave of k embeds all entering the backend
// therefore proves each executor has handed its first-wave response over
// before the client reads a byte — no window, no timing.
func TestResponsesCoalesceBehindBlockedWrite(t *testing.T) {
	const k = 16
	b := newStub()
	b.entered = make(chan struct{}, k)
	b.release = make(chan struct{})
	srv, l := startPipeServer(t, b, netserve.Config{MaxInflight: k})
	defer close(b.release) // whatever is still in the backend finishes, so Close can drain

	nc, h := l.dial(t)
	g := h.Geom
	if _, err := nc.Write(embedBatch(g, k)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		<-b.entered // all k requests blocked in the backend together
	}
	for i := 0; i < k; i++ {
		b.release <- struct{}{} // one token per blocked embed; nobody is reading yet
	}
	// The fence: once the budget is free again (so none of the second wave
	// is shed), k more embeds from another connection occupy every executor.
	for srv.Metrics().Inflight != 0 {
		goruntime.Gosched()
	}
	fence, _ := l.dial(t)
	if _, err := fence.Write(embedBatch(g, k)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		<-b.entered
	}

	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for id, payload := range readEmbedResponses(t, nc, k) {
		checkStubResponse(t, g, payload, int(id))
	}
	// However many responses the parked first flush carried, the rest were
	// all queued behind it: at most one of the k left as a lone frame.
	if sm := srv.Metrics(); sm.BatchedOut < k-1 {
		t.Fatalf("%d of %d responses rode in %d BATCH frames, want >=%d: responses queued behind a blocked write were not coalesced",
			sm.BatchedOut, k, sm.BatchesOut, k-1)
	}
}

// TestResponseNotHeldForInflightSibling pins that the writer never holds
// a finished response back for one still executing: of two embeds on one
// connection the backend answers one and keeps the other, and the first
// response must reach the client as a frame of its own while its sibling
// is still inside the backend (pending > 0 the whole time).
func TestResponseNotHeldForInflightSibling(t *testing.T) {
	b := newStub()
	b.entered = make(chan struct{}, 2)
	b.release = make(chan struct{})
	srv, addr := startServer(t, b, netserve.Config{})
	defer close(b.release) // a failure below must not leave the sibling wedging Close
	nc, h := rawDial(t, addr)
	g := h.Geom
	if _, err := nc.Write(embedBatch(g, 2)); err != nil {
		t.Fatal(err)
	}
	<-b.entered
	<-b.entered
	b.release <- struct{}{} // exactly one of the two completes

	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, first, payload, _, err := wire.ReadFrame(nc, nil, 0)
	if err != nil {
		t.Fatalf("no response while the sibling is in flight: %v", err)
	}
	if op != wire.OpEmbedResp || (first != 1 && first != 2) {
		t.Fatalf("first frame is op %d id %d, want a lone EMBED_RESP for request 1 or 2", op, first)
	}
	checkStubResponse(t, g, payload, int(first))
	if n, m := b.embeds.Load(), srv.Metrics(); n != 1 || m.Inflight != 1 {
		t.Fatalf("backend finished %d embeds with %d in flight, want 1 and 1: the sibling must still be executing", n, m.Inflight)
	}

	b.release <- struct{}{}
	op, second, payload, _, err := wire.ReadFrame(nc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op != wire.OpEmbedResp || second != 3-first {
		t.Fatalf("second frame is op %d id %d, want EMBED_RESP for request %d", op, second, 3-first)
	}
	checkStubResponse(t, g, payload, int(second))
	if sm := srv.Metrics(); sm.BatchesOut != 0 {
		t.Fatalf("%d coalesced frames written for two responses that never overlapped", sm.BatchesOut)
	}
}
