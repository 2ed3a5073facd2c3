// Package cluster scales the single-node serving stack out to many
// TensorNodes: a Cluster shards one recommender model across N nodes,
// routes every inference batch to the shards owning its rows, gathers the
// partial results over a modeled NVSwitch-class fabric and merges them
// bit-identically to the single-node golden embedding.
//
// The design follows the paper's own scaling argument (Section 4.3: a
// TensorNode is an endpoint of the GPU-side interconnect, so pooled
// capacity and aggregate NMP bandwidth grow with the number of nodes) and
// RecNMP's observation that production embedding traffic is heavily
// skewed, which the per-shard hot-row caches exploit.
//
// The routing algorithm itself is the Router (router.go), which this
// package shares with the remote replica router (internal/remote): Router
// owns everything below except "execute" and "transfer", which are the
// in-process Transport a Cluster supplies.
//
// Structure of one request:
//
//   - route: every lookup (table, row) maps through the placement — whole
//     tables round-robin for TableWise, rows hashed across shards for
//     RowWise — and each shard's CLOCK hot-row cache is then probed once for
//     all the lookups that landed on it. Hits are served from the cache;
//     misses are deduplicated into one flat index list per shard (a shard
//     stores all its rows as a single gather-only table, so a sub-request
//     is one index list regardless of how many tables it touches).
//   - execute: each non-empty sub-request runs through the shard's own
//     serve.Server (micro-batching across concurrent cluster requests) on
//     the shard's runtime.Deployment, gathering rows near-memory. Every
//     sub-request of a read is queued before the router waits for any, so
//     the shards gather concurrently.
//   - transfer: the index lists out and the partial gathered rows back are
//     charged to the fabric with interconnect.Switch.ConvergeSeconds —
//     concurrent shard responses converge on the router's port, so their
//     payloads serialize at its bandwidth.
//   - merge: gathered rows and cache hits are reassembled in request
//     order and pooled with the golden embed.Pool / embed.Average code, so
//     the merged output is bit-identical to the golden
//     recsys.Model.Embedding.Forward for both strategies.
//
// Pooling happens at the router rather than near-memory: a row-wise
// pooling group spans shards, and a cache hit must bypass the gather path
// entirely, so shards return raw gathered rows. The near-memory cores
// still perform the gathers — the bandwidth-dominant stage — while the
// cache absorbs the transfer inflation on skewed traffic.
//
// Online updates (ApplyUpdates) reuse the same routing: an update's rows
// split by placement into per-shard sub-updates that SCATTER_ADD
// near-memory through each shard's server, and the scattered rows are
// invalidated from the shard caches. The shard nodes hold the only copy of
// the tables: the cluster keeps no host-side model to write through to.
// A batch applies entry by entry in slice order on the caller's goroutine,
// each entry under its table's lock (float accumulation order is part of
// the bit-identity contract), and a cache version handshake
// (rowCache.probe / fill / invalidate) keeps a concurrent reader from
// parking a pre-update row in a cache after the update's invalidation
// pass.
package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"tensordimm/internal/interconnect"
	"tensordimm/internal/recsys"
	"tensordimm/internal/runtime"
	"tensordimm/internal/serve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// Config sizes a cluster. The zero value of every optional field selects a
// documented default at New; Nodes is required.
type Config struct {
	// Nodes is the number of TensorNode shards. Required, must be positive.
	Nodes int
	// Strategy selects table-wise (default) or row-wise sharding.
	Strategy Strategy
	// DIMMsPerNode is the TensorDIMM count of each node. Defaults to 8.
	// The model's embedding dimension must be a multiple of
	// DIMMsPerNode x 16 so rows stripe cleanly. Each node is sized for its
	// shard's table slice plus execution scratch (serve.Deploy).
	DIMMsPerNode int
	// MaxBatch caps the samples of one cluster request. Defaults to 64.
	MaxBatch int
	// Workers is each shard server's concurrent executor count (and its
	// deployment's slots and lanes). Defaults to 2.
	Workers int
	// CacheBytes is the per-shard hot-row cache capacity in bytes. Zero
	// (or anything smaller than one row) disables caching.
	CacheBytes int64
}

// checked validates the config against model geometry mc and fills the
// zero fields with their defaults.
func (c Config) checked(mc recsys.Config) (Config, error) {
	if c.Nodes <= 0 {
		return c, fmt.Errorf("cluster: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Strategy != TableWise && c.Strategy != RowWise {
		return c, fmt.Errorf("cluster: unknown strategy %v", c.Strategy)
	}
	if c.DIMMsPerNode < 0 || c.MaxBatch < 0 || c.Workers < 0 || c.CacheBytes < 0 {
		return c, fmt.Errorf("cluster: negative sizing (DIMMsPerNode %d, MaxBatch %d, Workers %d, CacheBytes %d)",
			c.DIMMsPerNode, c.MaxBatch, c.Workers, c.CacheBytes)
	}
	if c.DIMMsPerNode == 0 {
		c.DIMMsPerNode = 8
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if stripeElems := c.DIMMsPerNode * 16; mc.EmbDim%stripeElems != 0 {
		return c, fmt.Errorf("cluster: embedding dim %d must be a multiple of DIMMsPerNode x 16 = %d",
			mc.EmbDim, stripeElems)
	}
	return c, nil
}

// DeployShard builds the serving stack of shard s of the cluster cfg
// describes, alone: it carves the shard's gather-only model out of m
// (ExtractShardModel) and deploys it on its own TensorNode behind a server
// whose batch cap is the placement's largest sub-request — the geometry a
// replica router validates its handshake against. A replica process (or
// an in-process stand-in for one) runs exactly this; cfg.CacheBytes is
// unused, the hot-row cache lives in the router. Closing the returned
// server closes its node.
func DeployShard(m *recsys.Model, cfg Config, s int) (*serve.Server, error) {
	cfg, err := cfg.checked(m.Cfg)
	if err != nil {
		return nil, err
	}
	if s < 0 || s >= cfg.Nodes {
		return nil, fmt.Errorf("cluster: shard %d out of range [0, %d)", s, cfg.Nodes)
	}
	return deployShard(m, NewPlacement(cfg.Strategy, cfg.Nodes, m.Cfg.Tables, m.Cfg.TableRows), cfg, s)
}

// deployShard deploys shard s of m under placement p.
func deployShard(m *recsys.Model, p *Placement, cfg Config, s int) (*serve.Server, error) {
	shardModel, err := buildShardModel(m, p, s)
	if err != nil {
		return nil, err
	}
	// Worst case rows of one sub-request: every lookup of a maximal cluster
	// request lands on this shard.
	srv, err := serve.Deploy(shardModel, cfg.DIMMsPerNode, serve.Config{
		MaxBatch: p.MaxSub(s, cfg.MaxBatch, m.Cfg.Reduction),
		Workers:  cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
	}
	return srv, nil
}

// shard is one TensorNode of the cluster plus its serving stack.
type shard struct {
	id    int
	srv   *serve.Server
	cache *rowCache // nil when caching is disabled

	// The fabric byte series are derived from the two row counts (see
	// Instrument): a row moves 4 index bytes out and EmbBytes back.
	subRequests  atomic.Uint64
	rowsGathered atomic.Uint64
	subUpdates   atomic.Uint64 // sub-updates routed here
	rowsUpdated  atomic.Uint64 // gradient rows scattered near-memory
}

// Cluster is a sharded multi-node serving system for one recommender
// model. Create with New, read with EmbedInto (the caller runs the DNN
// stage, recsys.Model.InferFromEmbeddings, over the merged tensor) and
// write with ApplyUpdates from any number of goroutines, observe through
// the series Instrument registers, and Close when done.
//
// A Cluster is a thin owner of the shared Router core (router.go), which
// does the routing, deduplication, cache probing, scatter/gather, merge and
// update splitting, over the in-process transport below: one serve.Server per
// shard plus the modeled fabric accounting. The router's scratch and the
// transport's gather buffers are pooled together, so the steady-state
// EmbedInto path performs no heap allocations (see ARCHITECTURE.md, "Memory
// discipline").
type Cluster struct {
	mc     recsys.Config // the full model's geometry
	cfg    Config
	place  *Placement
	shard  []*shard
	router *Router
	// sw is the modeled switch connecting the shards to the router: one
	// NVSwitch port per shard plus the router's.
	sw interconnect.Switch

	fabric    *telemetry.Histogram // modeled fabric seconds per request
	updFabric *telemetry.Histogram // modeled fabric seconds per update batch
}

// New shards the model across cfg.Nodes TensorNodes: it materializes each
// shard's flat local table from the model's tables, builds and uploads a
// gather-only deployment per shard, and starts a serve.Server in front of
// each. The model is input only: it is not modified, the cluster keeps
// only its config, and each carved shard table is garbage once uploaded.
func New(m *recsys.Model, cfg Config) (*Cluster, error) {
	cfg, err := cfg.checked(m.Cfg)
	if err != nil {
		return nil, err
	}
	mc := m.Cfg
	c := &Cluster{
		mc:        mc,
		cfg:       cfg,
		place:     NewPlacement(cfg.Strategy, cfg.Nodes, mc.Tables, mc.TableRows),
		sw:        interconnect.NVSwitch(cfg.Nodes + 1),
		fabric:    telemetry.NewHistogram(),
		updFabric: telemetry.NewHistogram(),
	}
	c.router = NewRouter("cluster", mc, c.place, cfg.MaxBatch, localTransport{c}, nil)
	// Each shard runs the stack a replica process deploys (deployShard), so
	// an in-process shard and a remote replica serve identical bytes. An
	// empty shard (no rows placed on it) gets no serving stack.
	for s := 0; s < cfg.Nodes; s++ {
		sh := &shard{id: s}
		c.shard = append(c.shard, sh)
		if c.place.localRows[s] == 0 {
			continue
		}
		if sh.srv, err = deployShard(m, c.place, cfg, s); err != nil {
			c.Close() // release the shards already built
			return nil, err
		}
		sh.cache = newRowCache(cfg.CacheBytes, mc.EmbDim, c.place.localRows[s])
		c.router.caches[s] = sh.cache
	}
	return c, nil
}

// localTransport is the in-process Transport: each shard is a serve.Server
// over its own TensorNode, and every byte the router would put on the wire
// is charged to the modeled fabric.
type localTransport struct{ c *Cluster }

// localCall is localTransport's per-scratch state: one reused request
// header and gather buffer per shard, the shard servers' handles for the
// sub-requests in flight, and the fabric bytes of the request.
type localCall struct {
	c       *Cluster
	rowsArg [][][]int       // per shard: reused 1-element header for the server call
	out     [][]float32     // per shard: the buffer the shard server gathers into
	pending []serve.Pending // per shard: the started sub-request, from Start to Wait
	err     []error         // per shard: a submission failure, reported by Wait
	fabric  []int64         // per shard: bytes this request moved over the fabric
}

// NewCall sizes the per-shard gather buffers for a maximal sub-request.
func (t localTransport) NewCall() Call {
	c := t.c
	mc := c.mc
	lc := &localCall{
		c:       c,
		rowsArg: make([][][]int, c.cfg.Nodes),
		out:     make([][]float32, c.cfg.Nodes),
		pending: make([]serve.Pending, c.cfg.Nodes),
		err:     make([]error, c.cfg.Nodes),
		fabric:  make([]int64, c.cfg.Nodes),
	}
	for s := range lc.out {
		lc.rowsArg[s] = make([][]int, 1)
		lc.out[s] = make([]float32, 0, c.place.MaxSub(s, c.cfg.MaxBatch, mc.Reduction)*mc.EmbDim)
	}
	return lc
}

// Start queues one shard's sub-request on the shard server, which gathers
// the deduplicated rows into the call's per-shard buffer while the router
// starts the other shards.
func (lc *localCall) Start(s int, rows []int, _ time.Time) {
	lc.rowsArg[s][0] = rows
	lc.pending[s], lc.err[s] = lc.c.shard[s].srv.StartEmbedInto(lc.out[s][:0], lc.rowsArg[s], len(rows))
}

// Wait collects one shard's gathered rows and accounts the transfer — index
// list out, partial rows back — per shard for the fabric model. A failed
// sub-request gathered and transferred nothing.
func (lc *localCall) Wait(s int) ([]float32, error) {
	sh := lc.c.shard[s]
	out, err := lc.out[s], lc.err[s]
	if err == nil {
		out, err = lc.pending[s].Wait()
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
	}
	lc.out[s] = out
	n := len(lc.rowsArg[s][0])
	idxBytes := int64(n) * 4
	rowBytes := int64(n) * lc.c.mc.EmbBytes()
	sh.subRequests.Add(1)
	sh.rowsGathered.Add(uint64(n))
	lc.fabric[s] = idxBytes + rowBytes
	return out, nil
}

// Release charges the finished request to the fabric model: concurrent
// shard responses converge on the router's port, so their payloads
// serialize at its bandwidth. The gather buffers stay with the call.
func (lc *localCall) Release() {
	lc.c.fabric.Observe(lc.c.sw.ConvergeSeconds(lc.fabric))
	clear(lc.fabric)
}

// Update scatters one sub-update near-memory through the shard's server,
// on the caller's goroutine (serve never queues an update behind reads),
// and charges its indices and gradients to the fabric like read traffic.
func (t localTransport) Update(s int, sub runtime.TableUpdate) error {
	sh := t.c.shard[s]
	if err := sh.srv.Update([]runtime.TableUpdate{sub}); err != nil {
		return fmt.Errorf("cluster: shard %d update: %w", s, err)
	}
	sh.subUpdates.Add(1)
	sh.rowsUpdated.Add(uint64(len(sub.Rows)))
	return nil
}

// EmbedInto runs the sharded embedding stage for one request of `batch`
// samples and writes the pooled [batch, tables*dim] values row-major into
// dst, which is grown if its capacity is insufficient and returned
// re-sliced to exactly batch*tables*dim. The output is bit-identical to the
// golden model's Embedding.Forward regardless of strategy, cache state or
// co-running requests. perTableRows holds batch x reduction row indices
// per table. A caller that reuses the returned slice performs zero heap
// allocations in steady state; the cluster writes to dst only for the
// duration of the call and never retains it. Safe for concurrent use (with
// distinct dst buffers).
func (c *Cluster) EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error) {
	return c.router.EmbedInto(dst, perTableRows, batch)
}

// StartEmbedInto is the submit half of EmbedInto: it validates and routes
// the read, probes the hot-row caches and queues every shard's
// sub-request, and returns without waiting, so a caller with several reads
// can have all of them queued at the shard servers, where they merge,
// before it blocks on any. Pending.Wait is the other half and must be
// called exactly once. It blocks only while a shard server's submission
// queue is full.
func (c *Cluster) StartEmbedInto(dst []float32, perTableRows [][]int, batch int) (Pending, error) {
	return c.router.StartEmbedInto(dst, perTableRows, batch)
}

// ApplyUpdates applies a batch of per-table gradient updates cluster-wide:
// every entry's rows are routed through the same TableWise/RowWise
// placement as gathers, scattered near-memory on the owning shards
// through each shard's server, and invalidated from the shards' hot-row
// caches. Index and gradient transfer bytes are charged to the fabric like
// read traffic. Validation, ordering and concurrency are the shared
// router's (Router.ApplyUpdates): entries apply in slice order on the
// caller's goroutine, same-table updates serialize, and after ApplyUpdates
// returns every subsequent EmbedInto observes the update and remains
// bit-identical to a sequential golden model that accumulates the same
// updates (runtime.AccumulateGolden).
//
// Each entry carries 1 to MaxBatch x reduction rows — one request's
// worth, mirroring the read path. A shard failure mid-batch returns an
// error, leaves that entry's table inconsistent between shards (counted in
// tensordimm_cluster_failures_total) and stops the batch: the entries
// after it are not applied. Callers should treat it as fatal for the
// deployment.
func (c *Cluster) ApplyUpdates(ups []runtime.TableUpdate) error {
	if err := c.router.ApplyUpdates(ups); err != nil {
		return err
	}
	// Every row went to exactly one shard, so the batch's fabric bytes
	// (indices + gradients, router -> shards) follow from its row count.
	var rows int64
	for _, up := range ups {
		rows += int64(len(up.Rows))
	}
	c.updFabric.Observe(c.sw.TransferSeconds(rows*4 + rows*c.mc.EmbBytes()))
	return nil
}

// Geometry reports the sharded model's shape and limits: table count,
// pooling reduction, embedding dimension, table height, and the per-request
// batch cap. The network serving plane announces exactly these numbers in
// its wire handshake, so a remote client can validate and size every
// request without out-of-band configuration.
func (c *Cluster) Geometry() wire.Geometry { return c.router.Geometry() }

// Config returns the cluster's effective configuration (defaults filled).
func (c *Cluster) Config() Config { return c.cfg }

// HotRows returns up to k flat local rows resident in one shard's hot-row
// cache: rows hit since the eviction sweep last passed them first, then
// the rest — exactly the set WarmCache reinstalls. A serving process
// persists this list at drain so a warm restart can WarmCache before
// admitting traffic. Returns nil when the shard has no cache or k <= 0,
// and an empty list while nothing is resident.
func (c *Cluster) HotRows(shard, k int) []int {
	if shard < 0 || shard >= len(c.shard) || c.shard[shard] == nil || c.shard[shard].cache == nil || k <= 0 {
		return nil
	}
	return c.shard[shard].cache.hotRows(k)
}

// WarmCache pre-populates one shard's hot-row cache with the given flat
// local rows (referenced first, as HotRows returns them): the rows gather
// through the shard's normal serving path in sub-request-sized chunks and
// park in the cache, so the first post-restart requests hit instead of
// paying the near-memory gather. Out-of-range rows are skipped — the list
// may come from a stale persisted file whose placement changed. Returns
// how many rows were cached: a chunk whose gather raced an ApplyUpdates on
// the shard is dropped (see rowCache) and not counted. No-op (0, nil) when
// the shard has no cache.
func (c *Cluster) WarmCache(shard int, flatRows []int) (int, error) {
	if shard < 0 || shard >= len(c.shard) {
		return 0, fmt.Errorf("cluster: shard %d out of range [0, %d)", shard, len(c.shard))
	}
	return c.router.warmCache(shard, flatRows)
}

// Close stops accepting requests, waits for every in-flight request and
// update to drain (Router.Close), shuts down every shard server (draining
// whatever they already accepted), releases the shard deployments, and
// closes the shard nodes. It is idempotent: every call, concurrent ones
// included, returns only after the shards are closed, with the first
// shard's error.
func (c *Cluster) Close() error {
	return c.router.Close(func() error {
		var first error
		for _, sh := range c.shard {
			if sh.srv == nil {
				continue
			}
			if err := sh.srv.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}
