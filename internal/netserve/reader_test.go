package netserve_test

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netserve"
	"tensordimm/internal/recsys"
	"tensordimm/internal/serve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// serveBackend deploys the coalescing-test model on one 4-DIMM node behind
// a serve.Server with a single worker, closed at cleanup after any
// netserve.Server registered later.
func serveBackend(t *testing.T) (*recsys.Model, *serve.Server) {
	t.Helper()
	m, err := recsys.Build(coalesceModelCfg(), 42)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := serve.Deploy(m, 4, serve.Config{MaxBatch: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	return m, ss
}

// TestServeBackendKeepsCoalescing pins that reads an in-process backend
// runs on the connection's reader still merge in serve's batcher: the
// reader starts every read of a BATCH frame before it awaits any, so with
// one serve worker a frame's reads queue together and run as fewer merged
// batches than reads. That holds for a serve.Server backend and for the
// shard servers behind a cluster.Cluster, whose reads start every shard's
// sub-request before the reader awaits any. A reader that awaited each
// read before starting the next would run every read alone. Every
// response must stay bit-identical to the golden model. The admission
// budget is half a frame, so a frame wider than the budget must not be
// shed against the reads it started itself: the reader awaits those and
// admits the rest.
func TestServeBackendKeepsCoalescing(t *testing.T) {
	const frames, k = 8, 8
	for _, tc := range []struct {
		name string
		// backend returns the model, the backend, and a reader of the
		// serve-level reads and merged batches behind it.
		backend func(t *testing.T) (*recsys.Model, netserve.Backend, func() (reads, batches uint64))
	}{
		{"serve", func(t *testing.T) (*recsys.Model, netserve.Backend, func() (uint64, uint64)) {
			m, ss := serveBackend(t)
			reg := telemetry.NewRegistry()
			ss.Instrument(reg)
			return m, netserve.ServerBackend(ss), func() (uint64, uint64) {
				return counterSum(t, reg, "tensordimm_serve_requests_total"), counterSum(t, reg, "tensordimm_serve_batches_total")
			}
		}},
		{"cluster", func(t *testing.T) (*recsys.Model, netserve.Backend, func() (uint64, uint64)) {
			m, err := recsys.Build(coalesceModelCfg(), 42)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cluster.New(m, cluster.Config{Nodes: 2, DIMMsPerNode: 4, MaxBatch: 16, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			reg := telemetry.NewRegistry()
			c.Instrument(reg)
			return m, netserve.ClusterBackend(c), func() (uint64, uint64) {
				return counterSum(t, reg, "tensordimm_serve_requests_total"), counterSum(t, reg, "tensordimm_serve_batches_total")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, b, merged := tc.backend(t)
			reg := telemetry.NewRegistry()
			_, addr := startServer(t, b, netserve.Config{MaxInflight: k / 2, Registry: reg})
			nc, _ := rawDial(t, addr)
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			rng := rand.New(rand.NewSource(23))

			for f := 0; f < frames; f++ {
				subs := make([][]byte, k)
				want := make(map[uint64][]float32, k)
				for i := range subs {
					batch := 1 + rng.Intn(2)
					rows := randBatchRows(rng, m.Cfg, batch)
					id := uint64(f*k + i + 1)
					subs[i] = wire.AppendEmbed(nil, id, 0, rows, batch, m.Cfg.Reduction)
					golden, err := m.Embedding.Forward(rows, batch)
					if err != nil {
						t.Fatal(err)
					}
					want[id] = append([]float32(nil), golden.Data()...)
				}
				if _, err := nc.Write(wire.AppendBatch(nil, 0, subs...)); err != nil {
					t.Fatal(err)
				}
				for id, payload := range readEmbedResponses(t, nc, k) {
					got := make([]float32, len(want[id]))
					if err := wire.DecodeEmbedResp(payload, got); err != nil {
						t.Fatalf("request %d: %v", id, err)
					}
					for j, w := range want[id] {
						if math.Float32bits(got[j]) != math.Float32bits(w) {
							t.Fatalf("request %d value %d: net %v != golden %v", id, j, got[j], w)
						}
					}
				}
			}
			if got := netCounter(t, reg, "requests"); got != frames*k {
				t.Fatalf("server completed %d reads, want %d", got, frames*k)
			}
			reads, batches := merged()
			if reads < frames*k {
				t.Fatalf("serve completed %d reads, want at least %d", reads, frames*k)
			}
			if batches >= reads {
				t.Fatalf("serve ran %d reads as %d merged batches: a frame's reads did not reach the batcher together", reads, batches)
			}
			t.Logf("%d serve reads in %d merged batches", reads, batches)
		})
	}
}

// TestBadSubFrameAnswersStartedReads pins that a protocol violation in
// the middle of a BATCH does not strand the reads the reader already
// started on a serve.Server: both reads ahead of the unknown op are
// answered, then the connection closes, and no admission slot leaks.
func TestBadSubFrameAnswersStartedReads(t *testing.T) {
	_, ss := serveBackend(t)
	reg := telemetry.NewRegistry()
	_, addr := startServer(t, netserve.ServerBackend(ss), netserve.Config{Registry: reg})
	nc, h := rawDial(t, addr)
	g := h.Geom
	subs := [][]byte{
		wire.AppendEmbed(nil, 1, 0, reqRows(g, 1, 1), 1, g.Reduction),
		wire.AppendEmbed(nil, 2, 0, reqRows(g, 2, 2), 2, g.Reduction),
		wire.AppendFrame(nil, wire.Op(200), 3, nil),
	}
	if _, err := nc.Write(wire.AppendBatch(nil, 0, subs...)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	seen := scanFrames(nc)
	if _, err := nc.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("connection still open after an unknown op: %v", err)
	}
	for id := uint64(1); id <= 2; id++ {
		if seen[id].op != wire.OpEmbedResp {
			t.Fatalf("started read %d answered %+v, want EMBED_RESP", id, seen[id])
		}
	}
	if len(seen) != 2 {
		t.Fatalf("%d responses, want the 2 reads only: %+v", len(seen), seen)
	}
	waitFor(t, 5*time.Second, func() bool { return netCounter(t, reg, "bad_frames") == 1 })
	if req, inflight := netCounter(t, reg, "requests"), netInflight(t, reg); req != 2 || inflight != 0 {
		t.Fatalf("server counted %d reads with %d in flight, want 2 and 0", req, inflight)
	}
}
