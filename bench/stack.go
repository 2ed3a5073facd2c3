package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/node"
	"tensordimm/internal/recsys"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
	"tensordimm/internal/serve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
	"tensordimm/internal/workload"
)

// workloadDef is one workload's definition: the stack it runs on and the
// load it offers. Every value here is part of the benchmark — changing one
// changes what the numbers mean.
type workloadDef struct {
	name string
	why  string

	model   recsys.Config
	batch   int     // samples per read
	window  int     // reads in flight per generator (pipelined over the network); 0 = in-process closed loop
	warmup  int     // fixed-count warm-up reads, part of set-up
	rateCap int     // sample capacity per generator, reads per second
	zipf    float64 // row skew of the read feed; 0 = uniform
	feedLen int     // distinct pre-generated read batches
	updHz   int     // paced writer rate; 0 = read-only
	// minHitRate fails the run when the hot-row caches served a smaller
	// share of the interval's lookups: the workload would have turned into
	// a different one.
	minHitRate float64
	build      func(e *env, st *stack) error
}

const (
	updRows  = 8   // rows per update
	updCount = 256 // distinct pre-generated updates
	dimms    = 4   // TensorDIMMs per node, everywhere
	maxBatch = 64  // largest request any stack accepts
	shards   = 2
)

// hotModel is benchkit's NetRoundTrip geometry, on purpose: the
// repository's perf record (101k -> 51k req/s) is about this shape.
var hotModel = recsys.Config{
	Name: "bench-hot", Tables: 4, Reduction: 2, FCLayers: 1,
	EmbDim: 64, TableRows: 4096, Hidden: []int{16},
}

// gatherModel is 128 MiB of tables: each read gathers 1 MiB near-memory.
var gatherModel = recsys.Config{
	Name: "bench-gather", Tables: 8, Reduction: 2, FCLayers: 1,
	EmbDim: 256, TableRows: 16384, Hidden: []int{16},
}

var workloads = []*workloadDef{
	{
		name:  "net_hot_read",
		why:   "cache-resident reads over loopback: wire, netclient, netserve and the cluster router do all the work, node/NMP almost none",
		model: hotModel, batch: 4, window: 32, warmup: 200000, rateCap: 150000,
		zipf: 0.9, feedLen: 64, minHitRate: 0.999, build: buildClusterStack,
	},
	{
		name:  "inproc_gather",
		why:   "no network, 1 MiB gathered per read: runtime lanes and node/NMP execute do all the work, plumbing none",
		model: gatherModel, batch: 64, window: 0, warmup: 600, rateCap: 5000,
		feedLen: 256, build: buildServeStack,
	},
	{
		name:  "net_hot_rw",
		why:   "net_hot_read plus 300 updates/s: cache invalidation, the shard update lock and write-through compete with the hot read path",
		model: hotModel, batch: 4, window: 32, warmup: 200000, rateCap: 150000,
		zipf: 0.9, feedLen: 64, updHz: 300, build: buildClusterStack,
	},
	{
		name:  "fleet_durable_rw",
		why:   "2 shards x 2 replicas behind a durable router: the only path through remote (hedge, breaker), persist (WAL, snapshot) and replica SYNC",
		model: hotModel, batch: 4, window: 8, warmup: 6000, rateCap: 30000,
		zipf: 0.9, feedLen: 256, updHz: 200, build: buildFleetStack,
	},
}

func findWorkload(name string) *workloadDef {
	for _, d := range workloads {
		if d.name == name {
			return d
		}
	}
	return nil
}

// env is what one process run of one workload shares across its phases.
type env struct {
	seed    int64
	outDir  string
	tracer  *tracer // nil in the untraced run: no wrapper is installed at all
	corrupt bool    // test hook: flip one bit of every expected value
	quick   bool    // unit tests: shrink the fixed warm-up
}

// shardStack is one node's serving stack: what a `tensorserve -shard-id`
// process (or the single node of inproc_gather) is made of.
type shardStack struct {
	model *recsys.Model
	node  *node.Node
	dep   *runtime.Deployment
	srv   *serve.Server
	net   *netserve.Server // nil when the node is not behind a listener
	addr  string
}

func (s *shardStack) close() {
	if s.net != nil {
		s.net.Close()
	}
	s.srv.Close()
	s.node.Close()
}

// stack is a built workload: the program under test plus the harness's
// generated inputs and golden model.
type stack struct {
	def *workloadDef

	// golden is the harness's own model, never handed to the program: built
	// from the same seed and advanced once per acknowledged update.
	golden  *recsys.Model
	feed    [][][]int
	updates [][]runtime.TableUpdate
	// onAck advances golden after an acknowledged update when the program
	// has no hook that reports its apply order (the writer is the only
	// source of updates, so acknowledgement order is apply order).
	onAck func([]runtime.TableUpdate)

	addr  string    // front endpoint; "" = in-process
	embed embedFunc // in-process read entry point

	cluster  *cluster.Cluster
	front    *netserve.Server
	router   *remote.RemoteCluster
	replicas []*shardStack
	local    *shardStack
	dataDir  string
	dataFS   string

	closers []func()
}

func (st *stack) width() int { return st.def.model.Tables * st.def.model.EmbDim }

func (st *stack) dial() (*netclient.Client, error) {
	return netclient.Dial(st.addr, netclient.Config{Conns: 1})
}

// close tears the stack down in reverse build order.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// buildStack generates the workload's inputs from the seed and builds the
// program under test.
func buildStack(e *env, d *workloadDef) (*stack, error) {
	st := &stack{def: d}
	golden, err := recsys.Build(d.model, e.seed)
	if err != nil {
		return nil, err
	}
	st.golden = golden

	var gen *workload.Generator
	if d.zipf > 0 {
		gen, err = workload.NewZipfGenerator(d.model.TableRows, d.zipf, e.seed*7919+1)
	} else {
		gen, err = workload.NewGenerator(d.model.TableRows, workload.Uniform, e.seed*7919+1)
	}
	if err != nil {
		return nil, err
	}
	st.feed = make([][][]int, d.feedLen)
	for i := range st.feed {
		st.feed[i] = gen.Batch(d.model.Tables, d.batch, d.model.Reduction)
	}
	if d.updHz > 0 {
		ugen, err := workload.NewZipfGenerator(d.model.TableRows, d.zipf, e.seed*7919+2)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(e.seed*7919 + 3))
		st.updates = make([][]runtime.TableUpdate, updCount)
		for i := range st.updates {
			grads := tensor.New(updRows, d.model.EmbDim)
			for j, g := 0, grads.Data(); j < len(g); j++ {
				g[j] = (rng.Float32() - 0.5) / 64
			}
			st.updates[i] = []runtime.TableUpdate{{
				Table: i % d.model.Tables, Rows: ugen.Indices(updRows), Grads: grads,
			}}
		}
	}
	if err := d.build(e, st); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// accumulateGolden applies an acknowledged update batch to the harness's
// golden model with the repository's one authoritative accumulation.
func (st *stack) accumulateGolden(ups []runtime.TableUpdate) {
	for _, up := range ups {
		runtime.AccumulateGolden(st.golden.Embedding.Tables[up.Table], up)
	}
}

// listen serves ns on a fresh loopback port.
func listen(ns *netserve.Server) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go ns.Serve(l)
	return l.Addr().String(), nil
}

// buildClusterStack: net_hot_read and net_hot_rw. A 2-shard in-process
// cluster with 256 KiB of hot-row cache per shard behind a netserve on
// loopback, instrumented the way benchkit's NetRoundTrip stack is.
func buildClusterStack(e *env, st *stack) error {
	// The cluster writes updates through to the model it was built from, so
	// it gets its own copy: the harness's golden stays independent.
	m, err := recsys.Build(st.def.model, e.seed)
	if err != nil {
		return err
	}
	cl, err := cluster.New(m, cluster.Config{
		Nodes: shards, DIMMsPerNode: dimms, MaxBatch: maxBatch, CacheBytes: 256 << 10,
	})
	if err != nil {
		return err
	}
	st.closers = append(st.closers, func() { cl.Close() })
	st.cluster = cl
	reg := telemetry.NewRegistry()
	cl.Instrument(reg)
	ns, err := netserve.New(e.tracer.wrap(netserve.ClusterBackend(cl), spanClusterEmbed, spanClusterUpdate),
		netserve.Config{Registry: reg})
	if err != nil {
		return err
	}
	st.closers = append(st.closers, func() { ns.Close() })
	st.front = ns
	if st.addr, err = listen(ns); err != nil {
		return err
	}
	st.onAck = st.accumulateGolden
	return nil
}

// buildShard builds the serving stack of one node holding model m: node,
// concurrent deployment, micro-batching server, instrumented.
func buildShard(m *recsys.Model, maxB, workers, lanes int) (*shardStack, error) {
	// Tables, two gather buffers per lane, one output region per slot, and
	// headroom for stripe alignment and padding slack.
	emb := uint64(m.Cfg.EmbBytes())
	region := uint64(maxB*m.Cfg.Reduction)*emb + 64<<10
	need := uint64(m.Cfg.TotalTableBytes()) + uint64(2*lanes+workers*m.Cfg.Tables)*region
	per := (need + need/4) / dimms
	nd, err := node.New(node.Config{DIMMs: dimms, PerDIMMBytes: (per + 4095) / 4096 * 4096})
	if err != nil {
		return nil, err
	}
	dep, err := runtime.DeployConcurrent(m, nd, maxB, workers, lanes)
	if err != nil {
		nd.Close()
		return nil, err
	}
	srv, err := serve.New(serve.Config{MaxBatch: maxB, Workers: workers}, dep)
	if err != nil {
		nd.Close()
		return nil, err
	}
	srv.Instrument(telemetry.NewRegistry())
	return &shardStack{model: m, node: nd, dep: dep, srv: srv}, nil
}

// buildServeStack: inproc_gather. One node, no network; batch == MaxBatch
// so the batcher dispatches every read at once.
func buildServeStack(e *env, st *stack) error {
	// Read-only, so the deployed model doubles as the golden: the node
	// holds its own copy of the tables, which is what is under test.
	sh, err := buildShard(st.golden, maxBatch, 2, 4)
	if err != nil {
		return err
	}
	st.closers = append(st.closers, sh.close)
	st.local = sh
	st.embed = sh.srv.EmbedInto
	return nil
}

// buildReplica builds one replica of shard s the way `tensorserve
// -shard-id` does: rebuild the seeded model, carve the shard, deploy, and
// serve it with RoleReplica on loopback.
func buildReplica(e *env, d *workloadDef, s int) (*shardStack, error) {
	m, err := recsys.Build(d.model, e.seed)
	if err != nil {
		return nil, err
	}
	sm, err := cluster.ExtractShardModel(m, cluster.TableWise, shards, s)
	if err != nil {
		return nil, err
	}
	p := cluster.NewPlacement(cluster.TableWise, shards, d.model.Tables, d.model.TableRows)
	sh, err := buildShard(sm, p.MaxSub(s, maxBatch, d.model.Reduction), 2, 4)
	if err != nil {
		return nil, err
	}
	return sh, nil
}

// buildFleetStack: fleet_durable_rw. 2 shards x 2 replicas, each a full
// serve stack behind its own listener; a writing RemoteCluster with default
// tuning and a durable log; a front netserve the generators dial.
func buildFleetStack(e *env, st *stack) error {
	d := st.def
	addrs := make([][]string, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < 2; r++ {
			sh, err := buildReplica(e, d, s)
			if err != nil {
				return err
			}
			st.closers = append(st.closers, sh.close)
			st.replicas = append(st.replicas, sh)
			ns, err := netserve.New(e.tracer.wrapReplica(netserve.ServerBackend(sh.srv)),
				netserve.Config{Role: wire.RoleReplica, Registry: telemetry.NewRegistry()})
			if err != nil {
				return err
			}
			sh.net = ns
			if sh.addr, err = listen(ns); err != nil {
				return err
			}
			addrs[s] = append(addrs[s], sh.addr)
		}
	}
	// The durable log lives inside the checkout: the benchmark writes
	// nowhere else.
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.outDir, "wal-*")
	if err != nil {
		return err
	}
	st.closers = append(st.closers, func() { os.RemoveAll(dir) })
	st.dataDir, st.dataFS = dir, fsType(dir)

	rc, err := remote.New(remote.Config{
		Model: d.model, Strategy: cluster.TableWise, Shards: addrs, DataDir: dir,
		// The router reports its apply order, so the golden follows that
		// rather than the writer's acknowledgements.
		OnApplied: func(up runtime.TableUpdate) {
			runtime.AccumulateGolden(st.golden.Embedding.Tables[up.Table], up)
		},
	})
	if err != nil {
		return err
	}
	st.closers = append(st.closers, func() { rc.Close() })
	st.router = rc
	if err := rc.WaitReady(10 * time.Second); err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	rc.Instrument(reg)
	ns, err := netserve.New(e.tracer.wrap(rc, spanRemoteEmbed, spanRemoteUpdate), netserve.Config{Registry: reg})
	if err != nil {
		return err
	}
	st.closers = append(st.closers, func() { ns.Close() })
	st.front = ns
	if st.addr, err = listen(ns); err != nil {
		return err
	}
	if up := rc.Metrics().ReplicasUp; up != len(st.replicas) {
		return fmt.Errorf("fleet: %d of %d replicas healthy after WaitReady", up, len(st.replicas))
	}
	return nil
}
