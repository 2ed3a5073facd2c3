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
//     RowWise — and each shard's LRU hot-row cache is then probed once for
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
//     the merged output is bit-identical to Deployment.GoldenEmbedding for
//     both strategies.
//
// Pooling happens at the router rather than near-memory: a row-wise
// pooling group spans shards, and a cache hit must bypass the gather path
// entirely, so shards return raw gathered rows. The near-memory cores
// still perform the gathers — the bandwidth-dominant stage — while the
// cache absorbs the transfer inflation on skewed traffic.
//
// Online updates (ApplyUpdates) reuse the same routing: an update's rows
// split by placement into per-shard sub-updates that SCATTER_ADD
// near-memory through each shard's server, the golden model absorbs the
// same gradients write-through, and the scattered rows are invalidated
// from the shard caches. Per-table locks serialize same-table updates
// (float accumulation order is part of the bit-identity contract), and a
// cache version handshake (rowCache.probe / fill / invalidate) keeps a
// concurrent reader from parking a pre-update row in a cache after the
// update's invalidation pass.
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
	"tensordimm/internal/tensor"
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

	subRequests  atomic.Uint64
	rowsGathered atomic.Uint64
	partialBytes atomic.Uint64 // gathered rows shipped shard -> router
	indexBytes   atomic.Uint64 // index lists shipped router -> shard
	subUpdates   atomic.Uint64 // sub-updates routed here
	rowsUpdated  atomic.Uint64 // gradient rows scattered near-memory
	updateBytes  atomic.Uint64 // indices + gradients shipped router -> shard
}

// Cluster is a sharded multi-node serving system for one recommender
// model. Create with New, submit with Infer or Embed from any number of
// goroutines, inspect with Metrics, and Close when done.
//
// A Cluster is a thin owner of the shared Router core (router.go), which
// does the routing, deduplication, cache probing, scatter/gather, merge and
// update splitting, over the in-process transport below: one serve.Server per
// shard plus the modeled fabric accounting. The router's scratch and the
// transport's gather buffers are pooled together, so the steady-state Embed
// path performs no heap allocations (see ARCHITECTURE.md, "Memory
// discipline").
type Cluster struct {
	model  *recsys.Model
	cfg    Config
	place  *Placement
	shard  []*shard
	router *Router
	// sw is the modeled switch connecting the shards to the router: one
	// NVSwitch port per shard plus the router's.
	sw interconnect.Switch

	started   time.Time
	fabric    *telemetry.Histogram // modeled fabric seconds per request
	updFabric *telemetry.Histogram // modeled fabric seconds per update batch
}

// New shards the model across cfg.Nodes TensorNodes: it materializes each
// shard's flat local table from the model's golden tables, builds and
// uploads a gather-only deployment per shard, and starts a serve.Server
// in front of each. The model itself is not modified and keeps serving as
// the golden reference for merges.
func New(m *recsys.Model, cfg Config) (*Cluster, error) {
	cfg, err := cfg.checked(m.Cfg)
	if err != nil {
		return nil, err
	}
	mc := m.Cfg
	c := &Cluster{
		model:     m,
		cfg:       cfg,
		place:     NewPlacement(cfg.Strategy, cfg.Nodes, mc.Tables, mc.TableRows),
		sw:        interconnect.NVSwitch(cfg.Nodes + 1),
		fabric:    telemetry.NewHistogram(),
		updFabric: telemetry.NewHistogram(),
	}
	// Updates write through to the golden model under the router's table
	// lock, in the same per-table order the shards applied (shared
	// accumulation with the runtime).
	c.router = NewRouter("cluster", mc, c.place, cfg.MaxBatch, localTransport{c},
		func(up runtime.TableUpdate) { runtime.AccumulateGolden(m.Embedding.Tables[up.Table], up) })
	for s := 0; s < cfg.Nodes; s++ {
		sh, err := c.buildShard(s)
		if err != nil {
			c.Close() // release the shards already built
			return nil, err
		}
		c.shard = append(c.shard, sh)
		c.router.caches[s] = sh.cache
	}
	// Uptime starts when the cluster is ready to serve, not when table
	// upload began, so Metrics-derived throughput reflects serving time.
	c.started = time.Now()
	return c, nil
}

// buildShard materializes shard s: its gather-only model — one flat table
// holding every row the shard owns at the flat coordinate Placement.Locate
// assigns it, reduction 1 (pooling happens at the router's merge) — behind
// the same serving stack a replica process deploys (deployShard), so an
// in-process shard and a remote replica serve identical bytes. An empty
// shard (no rows placed on it) gets no serving stack.
func (c *Cluster) buildShard(s int) (*shard, error) {
	sh := &shard{id: s}
	localRows := c.place.localRows[s]
	if localRows == 0 {
		return sh, nil
	}
	srv, err := deployShard(c.model, c.place, c.cfg, s)
	if err != nil {
		return nil, err
	}
	sh.srv = srv
	sh.cache = newRowCache(c.cfg.CacheBytes, c.model.Cfg.EmbDim, localRows)
	return sh, nil
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
	mc := c.model.Cfg
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
	rowBytes := int64(n) * lc.c.model.Cfg.EmbBytes()
	sh.subRequests.Add(1)
	sh.rowsGathered.Add(uint64(n))
	sh.indexBytes.Add(uint64(idxBytes))
	sh.partialBytes.Add(uint64(rowBytes))
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

// Update scatters one sub-update near-memory through the shard's server
// (where updates order ahead of co-batched reads) and charges its indices
// and gradients to the fabric like read traffic.
func (t localTransport) Update(s int, sub runtime.TableUpdate) error {
	sh := t.c.shard[s]
	if err := sh.srv.Update([]runtime.TableUpdate{sub}); err != nil {
		return fmt.Errorf("cluster: shard %d update: %w", s, err)
	}
	n := int64(len(sub.Rows))
	sh.subUpdates.Add(1)
	sh.rowsUpdated.Add(uint64(n))
	sh.updateBytes.Add(uint64(n*4 + n*t.c.model.Cfg.EmbBytes()))
	return nil
}

// Embed runs the sharded embedding stage for one request of `batch`
// samples and returns the pooled [batch, tables*dim] tensor, bit-identical
// to Deployment.GoldenEmbedding regardless of strategy, cache state or
// co-running requests. perTableRows holds batch x reduction row indices
// per table, exactly as Deployment.Infer takes them. Safe for concurrent
// use.
func (c *Cluster) Embed(perTableRows [][]int, batch int) (*tensor.Tensor, error) {
	dst, err := c.router.EmbedInto(nil, perTableRows, batch)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(dst, batch, c.router.width)
}

// EmbedInto is Embed writing the pooled [batch, tables*dim] values
// row-major into dst, which is grown if its capacity is insufficient and
// returned re-sliced to exactly batch*tables*dim. A caller that reuses the
// returned slice performs zero heap allocations in steady state; the
// cluster writes to dst only for the duration of the call and never
// retains it. Safe for concurrent use (with distinct dst buffers).
func (c *Cluster) EmbedInto(dst []float32, perTableRows [][]int, batch int) ([]float32, error) {
	return c.router.EmbedInto(dst, perTableRows, batch)
}

// Infer runs Embed plus the model's DNN stage at the router (the GPU that
// received the merged tensor), returning [batch, 1] probabilities. The DNN
// stage runs after the routed read completed, so the request latency
// Metrics reports covers the embedding stage only. Safe for concurrent use.
func (c *Cluster) Infer(perTableRows [][]int, batch int) (*tensor.Tensor, error) {
	emb, err := c.Embed(perTableRows, batch)
	if err != nil {
		return nil, err
	}
	return c.model.InferFromEmbeddings(emb)
}

// ApplyUpdates applies a batch of per-table gradient updates cluster-wide:
// every entry's rows are routed through the same TableWise/RowWise
// placement as gathers, scattered near-memory on the owning shards (via
// each shard's server, where updates order ahead of co-batched reads),
// written through to the golden model, and invalidated from the shards'
// hot-row caches. Index and gradient transfer bytes are charged to the
// fabric like read traffic. Validation, ordering and concurrency are the
// shared router's (Router.ApplyUpdates): same-table updates serialize,
// and after ApplyUpdates returns every subsequent Embed observes the
// update and remains bit-identical to the sequential golden model.
//
// Each entry carries 1 to MaxBatch x reduction rows — one request's
// worth, mirroring the read path. A shard failure mid-batch returns an
// error and leaves that table inconsistent between shards and golden model
// (counted in Failures); callers should treat it as fatal for the
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
	c.updFabric.Observe(c.sw.TransferSeconds(rows*4 + rows*c.model.Cfg.EmbBytes()))
	return nil
}

// GoldenEmbedding computes the single-node reference embedding output the
// cluster's merge must match bit-for-bit.
func (c *Cluster) GoldenEmbedding(perTableRows [][]int, batch int) (*tensor.Tensor, error) {
	return c.model.Embedding.Forward(perTableRows, batch)
}

// Nodes returns the shard count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Geometry reports the sharded model's shape and limits: table count,
// pooling reduction, embedding dimension, table height, and the per-request
// batch cap. The network serving plane announces exactly these numbers in
// its wire handshake, so a remote client can validate and size every
// request without out-of-band configuration.
func (c *Cluster) Geometry() (tables, reduction, dim, tableRows, maxBatch int) {
	mc := c.model.Cfg
	return mc.Tables, mc.Reduction, mc.EmbDim, mc.TableRows, c.cfg.MaxBatch
}

// Config returns the cluster's effective configuration (defaults filled).
func (c *Cluster) Config() Config { return c.cfg }

// HotRows returns up to k flat local rows of one shard ranked by lifetime
// cache-probe count, hottest first — the Zipf head the shard's traffic
// actually exercised. A serving process persists this list at drain so a
// warm restart can WarmCache before admitting traffic. Returns nil when
// the shard has no cache (or no traffic yet).
func (c *Cluster) HotRows(shard, k int) []int {
	if shard < 0 || shard >= len(c.shard) || c.shard[shard] == nil || c.shard[shard].cache == nil || k <= 0 {
		return nil
	}
	return c.shard[shard].cache.hotRows(k)
}

// WarmCache pre-populates one shard's hot-row cache with the given flat
// local rows (hottest first, as HotRows returns them): the rows gather
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
// update to drain (Router.Close), shuts down
// every shard server (draining whatever they already accepted), releases
// the shard deployments, and closes the shard nodes. It is idempotent.
func (c *Cluster) Close() error {
	if !c.router.Close() {
		return nil
	}
	var first error
	for _, sh := range c.shard {
		if sh == nil || sh.srv == nil {
			continue
		}
		if err := sh.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
