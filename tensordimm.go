// Package tensordimm is a complete, self-contained reproduction of
// "TensorDIMM: A Practical Near-Memory Processing Architecture for
// Embeddings and Tensor Operations in Deep Learning" (Kwon, Lee & Rhu,
// MICRO-52, 2019), implemented in pure Go with no dependencies beyond the
// standard library.
//
// The library provides, as one vertically integrated stack:
//
//   - TensorISA (GATHER / REDUCE / AVERAGE), the paper's tensor instruction
//     set, with binary encoding and exact functional semantics;
//   - the TensorDIMM module: a buffered DIMM with a near-memory-processing
//     core (16-lane vector ALU, SRAM staging queues, NMP-local memory
//     controller) in its buffer device;
//   - TensorNode: a disaggregated pool of TensorDIMMs behind an
//     NVLink-class interconnect, with rank-interleaved tensor striping,
//     instruction broadcast and a pool memory allocator;
//   - a command-level DDR4 simulator (banks, ranks, channels, FR-FCFS,
//     refresh) that measures the effective memory bandwidth of the tensor
//     operations under both the conventional CPU organization and the
//     TensorDIMM organization;
//   - roofline CPU/GPU device models, PCIe/NVLink interconnect models, and
//     an end-to-end latency engine covering the paper's five recommender
//     design points (CPU-only, CPU-GPU, PMEM, TDIMM, GPU-only);
//   - the four recommender benchmarks of the evaluation (NCF, YouTube, Fox,
//     Facebook) as runnable models with real embedding tables and MLPs;
//   - one experiment driver per table and figure of the paper.
//
// # Quick start
//
//	nd, _ := tensordimm.NewNode(8, 64<<20)            // 8 TensorDIMMs
//	model, _ := tensordimm.BuildModel(cfg, 42)         // real tables + MLP
//	dep, _ := tensordimm.Deploy(model, nd, 64)         // upload, allocate
//	probs, _ := dep.Infer(indices, batch)              // NMP embedding + DNN
//
// # Serving
//
// The serve layer turns a model into a concurrent embedding server with
// dynamic micro-batching and latency accounting, on a node sized for it.
// Every serving layer (Server, Cluster, RemoteCluster, NetClient) has one
// read verb, EmbedInto, which fills a caller-owned buffer with the pooled
// [batch, tables*dim] embeddings; the DNN stage runs on the caller:
//
//	srv, _ := tensordimm.DeployServer(model, 8, tensordimm.ServeConfig{MaxBatch: 64, Workers: 4})
//	reg := tensordimm.NewTelemetry()
//	srv.Instrument(reg)                                // before the traffic it measures
//	emb := tensordimm.NewTensor(batch, cfg.Tables*cfg.EmbDim)
//	_, _ = srv.EmbedInto(emb.Data(), indices, batch)   // safe from any goroutine
//	probs, _ := model.InferFromEmbeddings(emb)         // DNN stage on the caller
//	reg.Snapshot().WriteText(os.Stdout)                // counters, p50/p95/p99 per series
//
// The steady-state serving path is allocation-free: callers that reuse the
// buffer they pass to EmbedInto (or Deployment.RunEmbeddingInto) perform
// zero heap allocations per request, which the ZeroAlloc tests beside each
// serving layer pin at 0 allocs/op in CI. EmbedInto allocates only when
// the buffer is nil or too small. See ARCHITECTURE.md, "Memory
// discipline".
//
// # Online updates
//
// Deployments, servers and clusters all accept SCATTER_ADD gradient
// updates while serving; caches stay coherent and reads stay bit-identical
// to a sequential golden model the caller keeps (the node holds the only
// copy of a table) and advances with every acknowledged update:
//
//	up := tensordimm.TableUpdate{Table: 0, Rows: rows, Grads: grads}
//	_ = srv.Update([]tensordimm.TableUpdate{up})       // on this goroutine, never queued behind reads
//	_ = cl.ApplyUpdates([]tensordimm.TableUpdate{up})  // routed + invalidated per shard
//	tensordimm.AccumulateGolden(golden.Embedding.Tables[0], up)
//
// See the examples directory for runnable programs, ARCHITECTURE.md for the
// layer stack, and EXPERIMENTS.md (in the repository root) for the
// paper-vs-reproduction record of every table and figure.
package tensordimm

import (
	"net/http"

	"tensordimm/internal/chaos"
	"tensordimm/internal/cluster"
	"tensordimm/internal/core"
	"tensordimm/internal/embed"
	"tensordimm/internal/experiments"
	"tensordimm/internal/isa"
	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/node"
	"tensordimm/internal/persist"
	"tensordimm/internal/recsys"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
	"tensordimm/internal/serve"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/tensor"
	"tensordimm/internal/wire"
	"tensordimm/internal/workload"
)

// Core system types, aliased from the implementation packages so external
// users never need the internal import paths.
type (
	// Node is a TensorNode: a disaggregated pool of TensorDIMMs.
	Node = node.Node
	// ModelConfig describes one recommender benchmark (Table 2).
	ModelConfig = recsys.Config
	// Model is a materialized recommender: embedding tables plus MLP.
	Model = recsys.Model
	// Deployment is a model resident in a TensorNode pool.
	Deployment = runtime.Deployment
	// Platform is the evaluation platform (devices, links, node).
	Platform = core.Platform
	// DesignPoint is one of the five system designs of Section 6.
	DesignPoint = core.DesignPoint
	// Breakdown is a per-phase inference latency decomposition (Figure 13).
	Breakdown = core.Breakdown
	// Tensor is a dense row-major float32 tensor.
	Tensor = tensor.Tensor
	// Program is an ordered TensorISA instruction sequence.
	Program = isa.Program
	// ExperimentResult is one reproduced table or figure.
	ExperimentResult = experiments.Result
	// WorkloadGenerator draws embedding lookup indices.
	WorkloadGenerator = workload.Generator
	// Server is a concurrent batched inference server over deployments.
	Server = serve.Server
	// ServeConfig tunes the server's batching and worker pool.
	ServeConfig = serve.Config
	// TableUpdate is one table's slice of an online gradient-update batch,
	// accepted by Deployment.ApplyUpdates, Server.Update and
	// Cluster.ApplyUpdates.
	TableUpdate = runtime.TableUpdate
	// Cluster is a sharded multi-node serving system with hot-row caching.
	Cluster = cluster.Cluster
	// ClusterConfig sizes a cluster (nodes, strategy, caches, fabric).
	ClusterConfig = cluster.Config
	// NetServer is the TCP serving plane fronting a server or cluster.
	NetServer = netserve.Server
	// NetServeConfig tunes the network server (admission budget, role, telemetry).
	NetServeConfig = netserve.Config
	// NetBackend is the serving engine a NetServer fronts.
	NetBackend = netserve.Backend
	// NetClient is the pooled, pipelined client of a NetServer.
	NetClient = netclient.Client
	// NetClientConfig tunes the client (pool size, dial retry, redial
	// backoff and hooks, deadline); every client redials a lost connection.
	NetClientConfig = netclient.Config
	// NetServerError is an error frame returned by a server, carrying the
	// machine-readable wire code (e.g. OVERLOADED for shed requests).
	NetServerError = netclient.ServerError
	// NetGeometry is the model shape a server announces in its handshake.
	NetGeometry = wire.Geometry
	// NetRole is the serving role a server announces in its handshake
	// (RoleStandalone or RoleReplica).
	NetRole = wire.Role
	// RemoteCluster routes requests over replica groups of remote shard
	// processes with hedged reads, failover, and sequenced update replay.
	RemoteCluster = remote.RemoteCluster
	// RemoteConfig describes the fleet a RemoteCluster routes over.
	RemoteConfig = remote.Config
	// RemoteUnavailable is the typed fast-failure a RemoteCluster returns
	// when every replica of a shard is unreachable.
	RemoteUnavailable = remote.Unavailable
	// RemoteDeadlineExceeded is the typed failure a RemoteCluster returns
	// when a read exhausts its end-to-end deadline budget (RemoteConfig
	// .Deadline), retries included.
	RemoteDeadlineExceeded = remote.DeadlineExceeded
	// NetDeadlineError is the typed failure a NetClient returns when a call
	// exhausts its deadline budget (NetClientConfig.Deadline) client-side.
	NetDeadlineError = netclient.DeadlineError
	// ChaosConfig parameterizes a seeded chaos soak (RunChaos).
	ChaosConfig = chaos.Config
	// ChaosReport summarizes a completed chaos soak.
	ChaosReport = chaos.Report
	// TelemetryRegistry is the process-wide metrics registry of the
	// observability plane: counters, gauges, latency histograms and slow
	// request traces, read only as a Snapshot.
	TelemetryRegistry = telemetry.Registry
)

// RunChaos executes one seeded chaos soak against an in-process replica
// fleet: deterministic fault schedule, mixed traffic, bit-identity and
// durability invariants. The error is non-nil when an invariant was
// violated; the report summarizes the run either way.
func RunChaos(cfg ChaosConfig) (ChaosReport, error) { return chaos.Run(cfg) }

// NewTelemetry builds an empty metrics registry. Layers register onto it
// via their Instrument methods (Server, Cluster, RemoteCluster, chaos) or
// config fields (NetServeConfig.Registry, ChaosConfig.Registry); serve it
// with MetricsHandler.
func NewTelemetry() *TelemetryRegistry { return telemetry.NewRegistry() }

// MetricsHandler returns the admin HTTP handler for a registry: /metrics
// (Prometheus text), /metrics.json (versioned snapshot), /slow (recent
// slow-request traces), /stream (SSE snapshot feed) and /debug/pprof/*.
func MetricsHandler(reg *TelemetryRegistry) http.Handler { return telemetry.NewHandler(reg) }

// RegisterGoRuntime adds Go runtime series (goroutines, heap, GC cycles
// and pause histogram) to a registry. Call once per process.
func RegisterGoRuntime(reg *TelemetryRegistry) { telemetry.RegisterGoRuntime(reg) }

// The five design points (Section 6).
const (
	CPUOnly = core.CPUOnly
	CPUGPU  = core.CPUGPU
	PMEM    = core.PMEM
	TDIMM   = core.TDIMM
	GPUOnly = core.GPUOnly
)

// Index distributions for workload generation.
const (
	Uniform = workload.Uniform
	Zipfian = workload.Zipfian
)

// Machine-readable error codes a NetServerError carries.
const (
	// NetErrOverloaded marks a request shed by admission control; retrying
	// after backoff is safe.
	NetErrOverloaded = wire.ErrOverloaded
	// NetErrUnavailable marks an operation refused because a shard's whole
	// replica group is unreachable; RemoteCluster surfaces it locally as a
	// *RemoteUnavailable.
	NetErrUnavailable = wire.ErrUnavailable
	// NetErrDeadlineExceeded marks a request a server shed because its
	// propagated deadline budget had already expired on arrival or in queue.
	NetErrDeadlineExceeded = wire.ErrDeadlineExceeded
)

// Serving roles announced in the network handshake.
const (
	// RoleStandalone is a self-contained endpoint (the default).
	RoleStandalone = wire.RoleStandalone
	// RoleReplica marks a server as one replica of a shard behind a
	// RemoteCluster router, whose sequenced SYNC frames are its write path.
	RoleReplica = wire.RoleReplica
)

// Sharding strategies for NewCluster.
const (
	// TableWise places whole tables on shards round-robin (the default).
	TableWise = cluster.TableWise
	// RowWise hash-partitions every table's rows across all shards.
	RowWise = cluster.RowWise
)

// NewNode builds a TensorNode with the given number of TensorDIMMs, each
// holding perDIMMBytes of rank-local DRAM.
func NewNode(dimms int, perDIMMBytes uint64) (*Node, error) {
	return node.New(node.Config{DIMMs: dimms, PerDIMMBytes: perDIMMBytes})
}

// NewTensor allocates a zero-filled dense row-major float32 tensor — e.g.
// the gradient batch of a TableUpdate.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// Benchmark configurations of the paper's evaluation (Table 2).
func NCF() ModelConfig      { return recsys.NCF() }
func YouTube() ModelConfig  { return recsys.YouTube() }
func Fox() ModelConfig      { return recsys.Fox() }
func Facebook() ModelConfig { return recsys.Facebook() }

// Benchmarks returns all four evaluation workloads in the paper's order.
func Benchmarks() []ModelConfig { return recsys.All() }

// BuildModel materializes a recommender model with deterministic random
// parameters.
func BuildModel(cfg ModelConfig, seed int64) (*Model, error) {
	return recsys.Build(cfg, seed)
}

// Deploy uploads a model's embedding tables into a TensorNode and prepares
// scratch space for inference batches up to maxBatch.
func Deploy(m *Model, nd *Node, maxBatch int) (*Deployment, error) {
	return runtime.Deploy(m, nd, maxBatch)
}

// DeployConcurrent is Deploy with explicit concurrency sizing: slots bounds
// concurrent batches in flight, lanes bounds concurrent per-table programs.
// A serving setup typically uses slots = workers, lanes = slots x tables.
func DeployConcurrent(m *Model, nd *Node, maxBatch, slots, lanes int) (*Deployment, error) {
	return runtime.DeployConcurrent(m, nd, maxBatch, slots, lanes)
}

// AccumulateGolden advances a caller-held golden table by one update.
func AccumulateGolden(table *embed.Table, up TableUpdate) { runtime.AccumulateGolden(table, up) }

// NewServer starts a concurrent batched embedding server over one
// deployment; read it with EmbedInto from any goroutine. Close the server
// to stop it and release the deployment.
func NewServer(cfg ServeConfig, dep *Deployment) (*Server, error) {
	return serve.New(cfg, dep)
}

// DeployServer builds a whole single-node serving stack: a TensorNode of
// dimms TensorDIMMs sized for the model, the deployment (one slot per
// worker, one lane per worker and table) and the server over it.
// cfg.MaxBatch and cfg.Workers are required. Closing the server closes its
// node.
func DeployServer(m *Model, dimms int, cfg ServeConfig) (*Server, error) {
	return serve.Deploy(m, dimms, cfg)
}

// DeployShard builds the serving stack of shard s of the cluster cfg
// describes, alone: the shard's gather-only slice of m on its own
// TensorNode, behind a server capped at the placement's largest
// sub-request. Fronted by a NetServer with RoleReplica, it is one replica
// of a RemoteCluster's replica group; replicas of the same shard built
// from the same deterministic model hold identical bytes, so a restarted
// replica reproduces its state by replaying the router's update log.
// Closing the server closes its node.
func DeployShard(m *Model, cfg ClusterConfig, s int) (*Server, error) {
	return cluster.DeployShard(m, cfg, s)
}

// NewCluster shards a model across cfg.Nodes TensorNodes with per-shard
// hot-row caches and a modeled NVSwitch fabric. Read it with EmbedInto
// from any goroutine; merged outputs are bit-identical to a single-node
// deployment. Close the cluster to stop the shard servers and release
// their pools.
func NewCluster(m *Model, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(m, cfg)
}

// NewNetServer wraps a backend (ServeBackend's adapter, or a *Cluster or
// *RemoteCluster as is) in the TCP serving plane. Start it with Serve on a listener; Close drains
// gracefully and leaves the backend running for its owner to close.
func NewNetServer(b NetBackend, cfg NetServeConfig) (*NetServer, error) {
	return netserve.New(b, cfg)
}

// ServeBackend adapts a single-node Server for NewNetServer.
func ServeBackend(s *Server) NetBackend { return netserve.ServerBackend(s) }

// NewRemoteCluster dials every replica of every shard in cfg.Shards and
// returns a router exposing the same request surface as an in-process
// Cluster: reads hedge and fail over across each shard's replica group,
// updates fan out with sequenced replay, and results stay bit-identical
// to the golden model no matter which replica answers. Each shard process
// serves its slice via `tensorserve shard` (a NetServer with RoleReplica
// over DeployShard's server).
// With cfg.DataDir set the update log is durable: every update is written
// to a per-shard WAL before it fans out, full-table snapshots trim the
// log, and a router restarted from the same DataDir resumes its sequence
// and catches replicas up — serving state bit-identical to an uncrashed
// writer.
func NewRemoteCluster(cfg RemoteConfig) (*RemoteCluster, error) {
	return remote.New(cfg)
}

// SaveHotRows persists a shard's hot-row list (flat local row indices,
// referenced rows first — Cluster.HotRows's output) under dir, written
// atomically.
// A serving process calls it at drain so the next boot can WarmCache
// before admitting traffic; an empty list removes the file.
func SaveHotRows(dir string, shard int, rows []int) error {
	return persist.SaveHotRows(dir, shard, rows)
}

// LoadHotRows reads a shard's persisted hot-row list, in saved order. A
// missing or corrupt file yields (nil, nil) — pre-warming is advisory, so
// a cold start is the fallback, never a boot failure.
func LoadHotRows(dir string, shard int) ([]int, error) {
	return persist.LoadHotRows(dir, shard)
}

// DialNet connects a pooled, pipelined client to a NetServer. The
// returned client's Geometry carries the server's model shape; EmbedInto
// results are bit-identical to the backend's in-process EmbedInto.
func DialNet(addr string, cfg NetClientConfig) (*NetClient, error) {
	return netclient.Dial(addr, cfg)
}

// NewWorkload returns a deterministic index generator over tables of `rows`
// rows with the given popularity distribution.
func NewWorkload(rows int, dist workload.Distribution, seed int64) (*WorkloadGenerator, error) {
	return workload.NewGenerator(rows, dist, seed)
}

// NewZipfWorkload returns a deterministic index generator drawing from a
// Zipf distribution with exponent s (any s > 0, including the production
// fit s = 0.9) over tables of `rows` rows.
func NewZipfWorkload(rows int, s float64, seed int64) (*WorkloadGenerator, error) {
	return workload.NewZipfGenerator(rows, s, seed)
}

// DefaultPlatform returns the paper's evaluation platform: DGX-class host,
// V100-class GPU, 32-TensorDIMM TensorNode behind 150 GB/s NVLink (Table 1).
func DefaultPlatform() Platform { return core.DefaultPlatform() }

// DesignPoints lists the five designs in the paper's order.
func DesignPoints() []DesignPoint { return core.DesignPoints() }

// Simulate costs one inference of the workload at the given batch under the
// chosen design point, returning the Figure 13 latency breakdown.
func Simulate(dp DesignPoint, cfg ModelConfig, batch int, p Platform) Breakdown {
	return core.Simulate(dp, cfg, batch, p)
}

// Speedup returns how much faster design a is than design b on a workload.
func Speedup(a, b DesignPoint, cfg ModelConfig, batch int, p Platform) float64 {
	return core.Speedup(a, b, cfg, batch, p)
}

// Experiments lists the identifiers of every reproduced table and figure.
func Experiments() []string { return experiments.IDs() }

// RunExperiment reproduces one table or figure by identifier (e.g. "fig11",
// "tab3"). Set full for the paper's complete parameter sweep on the
// simulation-heavy experiments; the default trimmed sweep preserves every
// trend at a fraction of the runtime.
func RunExperiment(id string, p Platform, full bool) (ExperimentResult, error) {
	scale := experiments.ScaleQuick
	if full {
		scale = experiments.ScaleFull
	}
	return experiments.ByID(id, p, scale)
}

// RunAllExperiments reproduces every table and figure in the paper's order.
func RunAllExperiments(p Platform, full bool) []ExperimentResult {
	scale := experiments.ScaleQuick
	if full {
		scale = experiments.ScaleFull
	}
	return experiments.All(p, scale)
}
