// Command tensorserve drives the serving stack with a synthetic open-loop
// workload: requests arrive at a fixed rate regardless of completion (the
// arrival model of a production front-end), the server coalesces whatever
// queues behind its busy workers into merged near-memory embedding
// executions — a lone request never waits for company — and the run ends
// with a throughput and latency report (p50/p95/p99).
//
// With -nodes N (N > 1) it drives the sharded cluster instead of a single
// node: the model is split table-wise or row-wise across N TensorNodes,
// each fronted by an optional hot-row cache, and the report adds per-shard
// sub-request, cache hit/miss and modeled fabric-transfer counters.
//
// With -update-frac F, that fraction of arrivals are SCATTER_ADD
// gradient-update batches instead of inferences; the report then includes
// update counts and (in cluster mode) per-shard update and cache
// invalidation counters.
//
// With -listen ADDR the process becomes a network server instead of a
// load driver: it builds the node or cluster, fronts it with the binary
// wire protocol, and serves until SIGINT/SIGTERM, when it drains
// gracefully and prints the serving report. With -connect ADDR it is the
// matching remote load driver: the model geometry comes from the server's
// handshake, the open-loop workload travels over TCP on a pool of
// pipelined connections, and the run ends with client-observed latency
// plus the server's own report. The two flags turn one binary into the
// classic two-terminal serving demo — and the CI network smoke test.
//
// With -listen plus -shard-id S the process serves one shard of a model
// split -nodes ways: it extracts shard S's gather-only slice from the
// deterministic model build and announces itself as a replica, ready to
// join a replica group. With -join "a1,a2/b1,b2" the process is the
// matching replica-group driver: each /-separated group lists one shard's
// replica endpoints, requests hedge and fail over inside each group, and
// updates fan out with sequenced replay — killing one replica of a
// multi-replica shard mid-run loses no requests. -replicas N asserts the
// intended group width up front. The driver exits non-zero if any request
// fails, which makes it the CI failover smoke test.
//
// With -data-dir DIR the -join driver's update log is durable: every
// update is appended to a per-shard WAL under DIR before it fans out, and
// full-table snapshots (every -snapshot-every entries) trim the log. A
// driver killed mid-run — SIGKILL included — and restarted with the same
// -data-dir resumes its update sequence and replays replicas back to the
// head, which is what the CI restart-replay smoke asserts. On a -listen
// cluster server, -data-dir instead persists each shard's hot-row top-K
// at drain and pre-warms the caches from it at the next boot, so a warm
// restart serves its first requests from cache.
//
// With -metrics-addr ADDR the process additionally serves a live admin
// endpoint while it runs (any mode except -connect, which reads the
// server's registry over the wire instead): /metrics is Prometheus text,
// /metrics.json the versioned snapshot, /slow the recent slow-request
// traces with per-hop timings, /stream an SSE feed of snapshots, and
// /debug/pprof/ the standard Go profiles.
//
// Usage:
//
//	tensorserve                                  # YouTube-class model, defaults
//	tensorserve -model facebook -rate 500 -duration 3s
//	tensorserve -rate 4000 -duration 1s          # saturate: mean batch ~40
//	tensorserve -model ncf -batch 4 -maxbatch 32 -workers 2
//	tensorserve -nodes 4 -shard row -cache-mb 4 -zipf -zipf-s 0.9
//	tensorserve -nodes 4 -cache-mb 4 -zipf -update-frac 0.2
//	tensorserve -listen :7077 -nodes 4 -cache-mb 4 -metrics-addr :9090
//	tensorserve -connect :7077 -rate 2000 -batch 4   # terminal 2: driver
//	curl -s localhost:9090/metrics | grep cache_hits # terminal 3: scrape
//
//	tensorserve -listen :7171 -nodes 2 -shard-id 0   # shard 0, replica A
//	tensorserve -listen :7172 -nodes 2 -shard-id 0   # shard 0, replica B
//	tensorserve -listen :7173 -nodes 2 -shard-id 1   # shard 1, replica A
//	tensorserve -listen :7174 -nodes 2 -shard-id 1   # shard 1, replica B
//	tensorserve -join ":7171,:7172/:7173,:7174" -replicas 2 -rate 500 -update-frac 0.2
//	tensorserve -join ... -data-dir /var/lib/tensordimm -snapshot-every 256
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tensordimm"
)

// flags holds every parsed flag so validation can reason about the whole
// set at once.
type flags struct {
	modelName string
	rows      int
	dim       int
	dimms     int
	batch     int
	rate      float64
	duration  time.Duration
	maxBatch  int
	workers   int
	zipf      bool
	zipfS     float64
	seed      int64
	updFrac   float64

	nodes   int
	shard   string
	cacheMB float64

	listen   string
	connect  string
	conns    int
	inflight int

	shardID  int
	join     string
	replicas int
	sticky   bool
	deadline time.Duration

	dataDir   string
	snapEvery int

	chaosSeed int64

	metricsAddr string
}

func main() {
	var f flags
	flag.StringVar(&f.modelName, "model", "youtube", "benchmark model: ncf, youtube, fox, facebook")
	flag.IntVar(&f.rows, "rows", 4000, "rows per embedding table (paper-scale tables are hundreds of GBs; geometry is what matters)")
	flag.IntVar(&f.dim, "dim", 256, "embedding dimension (must be a multiple of dimms x 16)")
	flag.IntVar(&f.dimms, "dimms", 8, "TensorDIMMs per node")
	flag.IntVar(&f.batch, "batch", 1, "samples per client request")
	flag.Float64Var(&f.rate, "rate", 1000, "offered load in requests/second (open loop)")
	flag.DurationVar(&f.duration, "duration", 2*time.Second, "how long to offer load")
	flag.IntVar(&f.maxBatch, "maxbatch", 64, "merged-batch cap (samples)")
	flag.IntVar(&f.workers, "workers", 4, "concurrent batch executors (= deployment slots)")
	flag.BoolVar(&f.zipf, "zipf", false, "draw Zipfian (skewed) lookup indices instead of uniform")
	flag.Float64Var(&f.zipfS, "zipf-s", 1.2, "Zipf exponent for -zipf (0.9 matches production skew fits)")
	flag.Int64Var(&f.seed, "seed", 1, "workload seed")
	flag.Float64Var(&f.updFrac, "update-frac", 0, "fraction of requests that are SCATTER_ADD gradient updates (0..1)")

	flag.IntVar(&f.nodes, "nodes", 1, "TensorNode shards; >1 selects cluster mode")
	flag.StringVar(&f.shard, "shard", "table", "cluster sharding: table (whole tables round-robin) or row (rows hashed across shards)")
	flag.Float64Var(&f.cacheMB, "cache-mb", 0, "per-shard hot-row cache capacity in MiB (0 disables; cluster mode only)")

	flag.StringVar(&f.listen, "listen", "", "serve the node/cluster over TCP on this address instead of driving load (e.g. :7077)")
	flag.StringVar(&f.connect, "connect", "", "drive load over TCP against a -listen server at this address (geometry comes from the handshake)")
	flag.IntVar(&f.conns, "conns", 2, "client connection pool size for -connect")
	flag.IntVar(&f.inflight, "inflight", 256, "admission budget for -listen: in-flight requests beyond it are shed with OVERLOADED")

	flag.IntVar(&f.shardID, "shard-id", -1, "with -listen: serve only this shard of a model split -nodes ways, announcing the replica role")
	flag.StringVar(&f.join, "join", "", "drive load against replica groups of -shard-id servers: one ,-separated address group per shard, groups separated by / (e.g. :7171,:7172/:7173,:7174)")
	flag.IntVar(&f.replicas, "replicas", 0, "with -join: require every serving shard's group to list exactly this many replicas (0 skips the check)")
	flag.BoolVar(&f.sticky, "sticky", false, "with -join: attach read-only (sticky-shard routing) — reads go straight to each shard's replica group and updates are refused; the fleet's writer owns the update log")
	flag.StringVar(&f.dataDir, "data-dir", "", "durability root: with -join, each shard's update WAL and snapshots live here and a restarted driver resumes from them; with -listen -nodes N, hot-row lists persist here for cache pre-warming across restarts")
	flag.IntVar(&f.snapEvery, "snapshot-every", 0, "with -join: log entries per shard between full-table snapshots, which trim the update log (0 selects the default)")
	flag.DurationVar(&f.deadline, "deadline", 0, "with -connect or -join: end-to-end deadline budget per request, propagated to the server so both sides shed expired work (0 disables)")
	flag.Int64Var(&f.chaosSeed, "chaos-seed", 0, "run a seeded chaos soak against an in-process replica fleet instead of serving or driving load; -duration bounds the fault phase (0 disables)")
	flag.StringVar(&f.metricsAddr, "metrics-addr", "", "serve the admin endpoint on this address (e.g. 127.0.0.1:9090): /metrics (Prometheus text), /metrics.json, /slow, /stream (SSE), /debug/pprof/*; every mode except -connect, whose metrics come from the server over the wire")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if err := validate(f, set); err != nil {
		fmt.Fprintln(os.Stderr, "tensorserve:", err)
		os.Exit(2)
	}

	if f.chaosSeed != 0 {
		runChaos(f)
		return
	}
	if f.connect != "" {
		os.Exit(runConnect(f).exitCode())
	}

	cfg, err := benchmark(f.modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tensorserve:", err)
		os.Exit(2)
	}
	cfg.TableRows = f.rows
	cfg.EmbDim = f.dim
	if f.join != "" {
		os.Exit(runJoin(cfg, f).exitCode())
	}
	model, err := tensordimm.BuildModel(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %s: %d tables x %d rows, dim %d, %d-way %s\n",
		cfg.Name, cfg.Tables, cfg.TableRows, cfg.EmbDim, cfg.Reduction, poolingName(cfg))
	switch {
	case f.listen != "":
		runListen(model, cfg, f)
	case f.nodes > 1:
		os.Exit(runCluster(model, cfg, f).exitCode())
	default:
		os.Exit(runSingle(model, cfg, f).exitCode())
	}
}

// validate rejects inconsistent flag combinations up front with one
// actionable line, instead of a deep panic or a late failure mid-run. set
// names the flags given on the command line.
func validate(f flags, set map[string]bool) error {
	modes := 0
	for _, m := range []string{f.listen, f.connect, f.join} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-listen, -connect and -join are mutually exclusive (one process serves, the other drives)")
	}
	if f.chaosSeed != 0 && modes > 0 {
		return fmt.Errorf("-chaos-seed cannot be combined with -listen, -connect or -join: the soak boots its own in-process fleet")
	}
	if f.deadline < 0 {
		return fmt.Errorf("-deadline %v must not be negative (0 disables)", f.deadline)
	}
	if f.metricsAddr != "" && f.connect != "" {
		return fmt.Errorf("-metrics-addr cannot be combined with -connect: the serving process owns the registry; the driver reads it over the wire (server report + snapshot)")
	}
	if set["deadline"] && f.connect == "" && f.join == "" {
		return fmt.Errorf("-deadline needs -connect or -join: the budget is stamped by the requesting client")
	}
	if f.connect == "" && f.join == "" {
		// Network-only flags in the in-process driver would be silently
		// ignored.
		if set["conns"] {
			return fmt.Errorf("-conns needs -connect or -join: the in-process driver opens no network connections")
		}
	}
	if f.listen == "" {
		if set["inflight"] {
			return fmt.Errorf("-inflight needs -listen: admission control lives in the network server")
		}
		if set["shard-id"] {
			return fmt.Errorf("-shard-id needs -listen: a shard replica is a serving process (drive its group with -join)")
		}
	}
	if f.join == "" && set["replicas"] {
		return fmt.Errorf("-replicas needs -join: it asserts the width of each replica group being driven")
	}
	if f.join == "" && f.sticky {
		return fmt.Errorf("-sticky needs -join: sticky-shard routing attaches to replica groups")
	}
	if f.sticky && f.updFrac > 0 {
		return fmt.Errorf("-sticky refuses -update-frac %g: a sticky (read-only) router routes no updates; drive them through the fleet's writer", f.updFrac)
	}
	if f.snapEvery < 0 {
		return fmt.Errorf("-snapshot-every %d must not be negative (0 selects the default)", f.snapEvery)
	}
	if set["snapshot-every"] && f.join == "" {
		return fmt.Errorf("-snapshot-every needs -join: the update log lives in the replica-group driver")
	}
	if f.dataDir != "" {
		if f.sticky {
			return fmt.Errorf("-data-dir cannot be combined with -sticky: a read-only router owns no update log (the fleet's writer persists it)")
		}
		if f.join == "" && (f.listen == "" || f.nodes <= 1 || f.shardID >= 0) {
			return fmt.Errorf("-data-dir needs -join (durable update log) or -listen with -nodes N > 1 (persisted hot-row lists)")
		}
	}
	if f.join != "" {
		if err := validateJoin(f, set); err != nil {
			return err
		}
	}
	if f.connect != "" {
		// The server owns the model and topology; a -connect driver setting
		// them is a configuration that silently would not take effect.
		for _, name := range []string{"model", "rows", "dim", "dimms", "maxbatch", "workers", "nodes", "shard", "cache-mb", "inflight"} {
			if set[name] {
				return fmt.Errorf("-%s cannot be combined with -connect: the server defines the model, topology and limits (set it on the -listen side)", name)
			}
		}
	} else {
		// The process defines the model geometry itself.
		if f.rows < 1 {
			return fmt.Errorf("-rows %d must be at least 1", f.rows)
		}
		if f.maxBatch < 1 {
			return fmt.Errorf("-maxbatch %d must be at least 1", f.maxBatch)
		}
		if s := strings.ToLower(f.shard); s != "table" && s != "row" {
			return fmt.Errorf("-shard %q must be table or row", f.shard)
		}
	}
	if (f.connect != "" || f.join != "") && f.conns < 1 {
		return fmt.Errorf("-conns %d must be at least 1", f.conns)
	}
	if f.connect == "" && f.join == "" {
		if stripe := f.dimms * 16; f.dimms < 1 || f.dim%stripe != 0 {
			return fmt.Errorf("-dim %d must be a positive multiple of dimms x 16 = %d", f.dim, f.dimms*16)
		}
		if f.nodes < 1 {
			return fmt.Errorf("-nodes %d must be at least 1", f.nodes)
		}
		if f.workers < 1 {
			return fmt.Errorf("-workers %d must be at least 1", f.workers)
		}
		if set["shard-id"] {
			if f.shardID < 0 || f.shardID >= f.nodes {
				return fmt.Errorf("-shard-id %d out of range: the model splits into -nodes %d shards", f.shardID, f.nodes)
			}
			if set["cache-mb"] {
				return fmt.Errorf("-cache-mb cannot be combined with -shard-id: the hot-row cache lives in the in-process cluster router, not in a shard replica")
			}
		} else if f.nodes == 1 {
			// Cluster-only flags on a single node would be silently ignored.
			if set["shard"] {
				return fmt.Errorf("-shard needs cluster mode: add -nodes N (N > 1) or serve one shard with -shard-id")
			}
			if set["cache-mb"] {
				return fmt.Errorf("-cache-mb needs cluster mode: add -nodes N (N > 1); the single-node server has no hot-row cache")
			}
		}
		if f.cacheMB < 0 {
			return fmt.Errorf("-cache-mb %g must not be negative", f.cacheMB)
		}
		if f.inflight < 1 {
			return fmt.Errorf("-inflight %d must be at least 1", f.inflight)
		}
	}
	if f.listen != "" {
		// The serving process offers no load; driver flags would be silently
		// ignored.
		for _, name := range []string{"batch", "rate", "duration", "zipf", "zipf-s", "seed", "update-frac", "conns"} {
			if set[name] {
				return fmt.Errorf("-%s cannot be combined with -listen: the workload is driven by the -connect side", name)
			}
		}
	} else {
		if f.batch < 1 {
			return fmt.Errorf("-batch %d must be at least 1", f.batch)
		}
		if f.connect == "" && f.batch > f.maxBatch {
			return fmt.Errorf("-batch %d exceeds -maxbatch %d: the server would reject every request", f.batch, f.maxBatch)
		}
		if f.rate <= 0 {
			return fmt.Errorf("-rate %g must be positive", f.rate)
		}
		if f.duration <= 0 {
			return fmt.Errorf("-duration %v must be positive", f.duration)
		}
		if f.updFrac < 0 || f.updFrac > 1 {
			return fmt.Errorf("-update-frac %g must be in [0, 1]", f.updFrac)
		}
		if f.zipfS <= 0 {
			return fmt.Errorf("-zipf-s %g must be positive", f.zipfS)
		}
		if set["zipf-s"] && !f.zipf {
			return fmt.Errorf("-zipf-s needs -zipf (uniform indices ignore the exponent)")
		}
	}
	return nil
}

// validateJoin checks the replica-group driver's flag set. Unlike
// -connect, the -join driver defines the model geometry locally (it must
// match what the shard servers were built with — every replica's
// handshake is validated against it), so the model flags stay legal;
// server-side sizing flags would be silently ignored and are rejected.
func validateJoin(f flags, set map[string]bool) error {
	for _, name := range []string{"dimms", "workers", "cache-mb", "inflight"} {
		if set[name] {
			return fmt.Errorf("-%s cannot be combined with -join: it sizes the serving processes (set it on the -listen -shard-id side)", name)
		}
	}
	if set["nodes"] {
		return fmt.Errorf("-nodes cannot be combined with -join: the shard count is the number of /-separated groups")
	}
	groups, err := parseJoin(f.join)
	if err != nil {
		return err
	}
	if f.replicas < 0 {
		return fmt.Errorf("-replicas %d must not be negative", f.replicas)
	}
	if f.replicas > 0 {
		for s, g := range groups {
			if len(g) > 0 && len(g) != f.replicas {
				return fmt.Errorf("-replicas %d: shard %d's group lists %d addresses", f.replicas, s, len(g))
			}
		}
	}
	if f.dim < 1 {
		return fmt.Errorf("-dim %d must be at least 1", f.dim)
	}
	return nil
}

// parseJoin splits a -join value into per-shard replica address groups:
// groups are separated by /, addresses within a group by ,. An empty
// group stands for a shard the placement leaves without rows (table-wise
// splits with more shards than tables).
func parseJoin(join string) ([][]string, error) {
	var groups [][]string
	for s, g := range strings.Split(join, "/") {
		g = strings.TrimSpace(g)
		if g == "" {
			groups = append(groups, nil)
			continue
		}
		var addrs []string
		for _, a := range strings.Split(g, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("-join: shard %d's group %q has an empty address", s, g)
			}
			addrs = append(addrs, a)
		}
		groups = append(groups, addrs)
	}
	return groups, nil
}

// offer runs the open-loop workload the flags describe against read and
// update — the one path every driving mode takes — and returns its tally.
// Reads are batch-sample lookups over every table; updates are SCATTER_ADD
// gradient batches (batch rows against one random table), the
// asynchronous-training traffic an online recommender serves. over names
// the transport for the banner.
func offer[T any](f flags, tables, rows, reduction, dim int, over string,
	read func([][]int, int) (T, error), update func([]tensordimm.TableUpdate) error) tally {

	var gen *tensordimm.WorkloadGenerator
	var err error
	dist := "uniform"
	if f.zipf {
		dist = fmt.Sprintf("zipf(%.2g)", f.zipfS)
		gen, err = tensordimm.NewZipfWorkload(rows, f.zipfS, f.seed)
	} else {
		gen, err = tensordimm.NewWorkload(rows, tensordimm.Uniform, f.seed)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offering %.0f req/s x %v, batch %d, %s indices, %.0f%% updates (open loop%s)\n\n",
		f.rate, f.duration, f.batch, dist, 100*f.updFrac, over)
	rng := rand.New(rand.NewSource(f.seed))
	return drive(f.rate, f.duration, f.updFrac, f.seed,
		func() func() error {
			idx := gen.Batch(tables, f.batch, reduction)
			return func() error { _, err := read(idx, f.batch); return err }
		},
		func() func() error {
			urows := gen.Indices(f.batch)
			grads := tensordimm.NewTensor(len(urows), dim)
			for i := range grads.Data() {
				grads.Data()[i] = rng.Float32()*0.02 - 0.01
			}
			ups := []tensordimm.TableUpdate{{Table: rng.Intn(tables), Rows: urows, Grads: grads}}
			return func() error { return update(ups) }
		})
}

// shardStrategy maps the validated -shard flag to a strategy.
func shardStrategy(f flags) tensordimm.ShardStrategy {
	if strings.ToLower(f.shard) == "row" {
		return tensordimm.RowWise
	}
	return tensordimm.TableWise
}

// startMetrics boots the admin HTTP endpoint when -metrics-addr is set:
// it builds the process registry, adds the Go runtime series, and serves
// /metrics, /metrics.json, /slow, /stream and /debug/pprof/* on a
// background goroutine for the life of the process. Returns nil (no
// registry, layers skip instrumentation) when the flag is unset.
func startMetrics(f flags) *tensordimm.TelemetryRegistry {
	if f.metricsAddr == "" {
		return nil
	}
	reg := tensordimm.NewTelemetry()
	tensordimm.RegisterGoRuntime(reg)
	l, err := net.Listen("tcp", f.metricsAddr)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := http.Serve(l, tensordimm.MetricsHandler(reg)); err != nil {
			// The listener dies with the process; anything earlier is fatal
			// misconfiguration worth surfacing, not burying.
			fmt.Fprintln(os.Stderr, "tensorserve: metrics endpoint:", err)
		}
	}()
	fmt.Printf("metrics on http://%s/ (/metrics, /metrics.json, /slow, /stream, /debug/pprof/)\n", l.Addr())
	return reg
}

// makeCluster builds the sharded cluster the flags describe and prints
// its description — shared by the local driver and -listen modes so the
// two paths can never drift apart.
func makeCluster(model *tensordimm.Model, f flags, reg *tensordimm.TelemetryRegistry) *tensordimm.Cluster {
	strategy := shardStrategy(f)
	cl, err := tensordimm.NewCluster(model, tensordimm.ClusterConfig{
		Nodes:        f.nodes,
		Strategy:     strategy,
		DIMMsPerNode: f.dimms,
		MaxBatch:     f.maxBatch,
		Workers:      f.workers,
		CacheBytes:   int64(f.cacheMB * (1 << 20)),
	})
	if err != nil {
		log.Fatal(err)
	}
	if reg != nil {
		cl.Instrument(reg)
	}
	fmt.Printf("cluster: %d shards (%s), %d TensorDIMMs each, %.1f MiB cache per shard\n",
		f.nodes, strategy, f.dimms, f.cacheMB)
	fmt.Printf("shards: maxBatch %d samples/request, %d workers each\n", f.maxBatch, f.workers)
	return cl
}

// makeServer deploys one TensorNode and starts the batched server,
// printing the node/server description — shared like makeCluster.
func makeServer(model *tensordimm.Model, cfg tensordimm.ModelConfig, f flags, reg *tensordimm.TelemetryRegistry) (*tensordimm.Node, *tensordimm.Server) {
	nd, dep := deploySingle(model, cfg, f)
	srv, err := tensordimm.NewServer(tensordimm.ServeConfig{
		MaxBatch: f.maxBatch,
		Workers:  f.workers,
	}, dep)
	if err != nil {
		log.Fatal(err)
	}
	if reg != nil {
		srv.Instrument(reg)
	}
	fmt.Printf("node: %d TensorDIMMs, %.0f MiB pool, %d B stripe\n",
		nd.NodeDim(), float64(nd.CapacityBytes())/(1<<20), nd.StripeBytes())
	fmt.Printf("server: maxBatch %d, %d workers, %d lanes\n",
		f.maxBatch, f.workers, f.workers*cfg.Tables)
	return nd, srv
}

// makeShardServer extracts shard f.shardID's gather-only slice of the
// deterministic model build and deploys it on one TensorNode behind a
// batched server whose request cap is exactly the placement's largest
// possible sub-request — the geometry a replica router validates its
// handshake against. Replicas of the same shard run this same path from
// the same seed, so a restarted replica reproduces its pre-crash state by
// replaying the router's update log.
func makeShardServer(model *tensordimm.Model, cfg tensordimm.ModelConfig, f flags, reg *tensordimm.TelemetryRegistry) (*tensordimm.Node, *tensordimm.Server) {
	strategy := shardStrategy(f)
	place := tensordimm.NewPlacement(strategy, f.nodes, cfg.Tables, cfg.TableRows)
	if place.LocalRows(f.shardID) == 0 {
		log.Fatalf("shard %d holds no rows under %v placement (%d tables across %d shards); it needs no replicas",
			f.shardID, strategy, cfg.Tables, f.nodes)
	}
	shardModel, err := tensordimm.ExtractShardModel(model, strategy, f.nodes, f.shardID)
	if err != nil {
		log.Fatal(err)
	}
	f.maxBatch = place.MaxSub(f.shardID, f.maxBatch, cfg.Reduction)
	fmt.Printf("shard %d of %d (%s): %d local rows, sub-batch cap %d samples\n",
		f.shardID, f.nodes, strategy, shardModel.Cfg.TableRows, f.maxBatch)
	return makeServer(shardModel, shardModel.Cfg, f, reg)
}

// buildBackend constructs the serving backend the flags describe: one
// shard's slice for -shard-id, a single batched server for -nodes 1, the
// sharded cluster otherwise. It returns the backend, the cluster when one
// was built (nil otherwise — warm-restart hooks need it), and the close
// function.
func buildBackend(model *tensordimm.Model, cfg tensordimm.ModelConfig, f flags, reg *tensordimm.TelemetryRegistry) (tensordimm.NetBackend, *tensordimm.Cluster, func() error) {
	if f.shardID < 0 && f.nodes > 1 {
		cl := makeCluster(model, f, reg)
		return tensordimm.ClusterBackend(cl), cl, cl.Close
	}
	makeNode := makeServer
	if f.shardID >= 0 {
		makeNode = makeShardServer
	}
	nd, srv := makeNode(model, cfg, f, reg)
	return tensordimm.ServeBackend(srv), nil, func() error {
		err := srv.Close()
		nd.Close()
		return err
	}
}

// hotRowsTopK bounds how many hot rows a cluster shard persists at drain;
// WarmCache additionally clamps the warm set to what the cache can hold.
const hotRowsTopK = 4096

// warmCluster pre-populates every shard's hot-row cache from the lists a
// previous run persisted under dir. Called before the listener starts, so
// the first admitted requests already hit. Best-effort: a missing or stale
// list just warms fewer rows.
func warmCluster(cl *tensordimm.Cluster, dir string, nodes int) {
	total := 0
	for s := 0; s < nodes; s++ {
		rows, err := tensordimm.LoadHotRows(dir, s)
		if err != nil || len(rows) == 0 {
			continue
		}
		n, err := cl.WarmCache(s, rows)
		if err != nil {
			log.Fatal(err) // a gather failure at boot is a broken shard
		}
		total += n
	}
	if total > 0 {
		fmt.Printf("warm restart: pre-populated %d hot rows from %s\n", total, dir)
	}
}

// persistHotRows writes every shard's hot-row top-K under dir at drain.
func persistHotRows(cl *tensordimm.Cluster, dir string, nodes int) {
	for s := 0; s < nodes; s++ {
		if err := tensordimm.SaveHotRows(dir, s, cl.HotRows(s, hotRowsTopK)); err != nil {
			fmt.Fprintln(os.Stderr, "tensorserve: persisting hot rows:", err)
			return
		}
	}
}

// runListen serves the node or cluster over TCP until SIGINT/SIGTERM,
// then drains gracefully and prints the serving report.
func runListen(model *tensordimm.Model, cfg tensordimm.ModelConfig, f flags) {
	reg := startMetrics(f)
	backend, cl, closeBackend := buildBackend(model, cfg, f, reg)
	if cl != nil && f.dataDir != "" {
		warmCluster(cl, f.dataDir, f.nodes)
	}
	role := tensordimm.RoleStandalone
	if f.shardID >= 0 {
		role = tensordimm.RoleReplica
	}
	srv, err := tensordimm.NewNetServer(backend, tensordimm.NetServeConfig{MaxInflight: f.inflight, Role: role, Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", f.listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening on %s (admission budget %d in-flight); SIGINT/SIGTERM drains and exits\n",
		l.Addr(), f.inflight)

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("\n%s: draining in-flight requests...\n", sig)
	case err := <-serveDone:
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	if cl != nil && f.dataDir != "" {
		persistHotRows(cl, f.dataDir, f.nodes)
	}
	fmt.Println(srv.Metrics())
	fmt.Println(backend.MetricsText())
	if err := closeBackend(); err != nil {
		log.Fatal(err)
	}
}

// runConnect drives the open-loop workload over TCP against a -listen
// server. Geometry (tables, reduction, dim, rows, max batch) comes from
// the server's handshake. Shed requests (OVERLOADED) are counted, not
// fatal — under open-loop overload they are the admission control working
// as designed. Exits non-zero if nothing completed.
func runConnect(f flags) tally {
	cl, err := tensordimm.DialNet(f.connect, tensordimm.NetClientConfig{
		Conns:    f.conns,
		RetryFor: 5 * time.Second,
		Deadline: f.deadline,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	g := cl.Geometry()
	fmt.Printf("connected to %s over %d conns: %d tables x %d rows, dim %d, reduction %d, max batch %d\n",
		f.connect, f.conns, g.Tables, g.TableRows, g.Dim, g.Reduction, g.MaxBatch)
	if f.batch > g.MaxBatch {
		fmt.Fprintf(os.Stderr, "tensorserve: -batch %d exceeds the server's max batch %d\n", f.batch, g.MaxBatch)
		os.Exit(2)
	}
	t := offer(f, g.Tables, g.TableRows, g.Reduction, g.Dim, " over TCP", cl.Embed, cl.Update)
	t.report(f.rate)
	if snap, report, err := cl.MetricsSnapshot(); err == nil {
		fmt.Printf("\n--- server report ---\n%s\n", report)
		if snap != nil && len(snap.Counters) > 0 {
			// Exact counters from the server's telemetry registry (wire
			// revision 6) — the same series its /metrics endpoint exports.
			// An uninstrumented server (-listen without -metrics-addr) ships
			// an empty snapshot; only the human report applies then.
			reqs, _ := snap.Counter("tensordimm_net_requests_total")
			shedN, _ := snap.Counter("tensordimm_net_shed_total")
			fmt.Printf("server telemetry: %d requests, %d shed", reqs, shedN)
			if h, ok := snap.Histogram("tensordimm_net_request_seconds"); ok && h.Count > 0 {
				fmt.Printf(", exec p50 %.3gms p99 %.3gms", h.P50*1e3, h.P99*1e3)
			}
			fmt.Println()
		}
	} else {
		fmt.Fprintln(os.Stderr, "tensorserve: fetching server metrics:", err)
	}
	return t
}

// runJoin drives the open-loop workload against replica groups of remote
// shard processes through the failover router. Unlike -connect, there is
// no shedding to tolerate at this level: the router retries sheds and
// fails over transport losses internally, so any surfaced error is a lost
// request and the run exits non-zero — which is what the CI failover
// smoke asserts while SIGKILLing a replica mid-run.
func runJoin(cfg tensordimm.ModelConfig, f flags) tally {
	groups, err := parseJoin(f.join) // validated; re-parsed for the addresses
	if err != nil {
		log.Fatal(err)
	}
	rc, err := tensordimm.NewRemoteCluster(tensordimm.RemoteConfig{
		Model:         cfg,
		Strategy:      shardStrategy(f),
		Shards:        groups,
		MaxBatch:      f.maxBatch,
		Conns:         f.conns,
		RetryFor:      5 * time.Second,
		ReadOnly:      f.sticky,
		DataDir:       f.dataDir,
		SnapshotEvery: f.snapEvery,
		Deadline:      f.deadline,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rc.Close()
	if reg := startMetrics(f); reg != nil {
		rc.Instrument(reg)
	}
	replicas := 0
	for _, g := range groups {
		replicas += len(g)
	}
	mode := ""
	if f.sticky {
		mode = ", sticky read-only"
	}
	if f.dataDir != "" {
		mode = fmt.Sprintf(", durable log at %s", f.dataDir)
	}
	fmt.Printf("joined %d shards (%s%s) over %d replicas: %d tables x %d rows, dim %d, %d-way %s\n",
		len(groups), shardStrategy(f), mode, replicas, cfg.Tables, cfg.TableRows, cfg.EmbDim,
		cfg.Reduction, poolingName(cfg))
	t := offer(f, cfg.Tables, cfg.TableRows, cfg.Reduction, cfg.EmbDim, " over replica groups", rc.Embed, rc.ApplyUpdates)
	t.report(f.rate)
	fmt.Println(rc.Metrics())
	return t
}

// runChaos runs the seeded chaos soak: an in-process replica fleet under
// a deterministic fault schedule, with bit-identity, durability and
// deadline invariants checked throughout. Exits non-zero on any
// violation, which makes it the CI chaos smoke.
func runChaos(f flags) {
	fmt.Printf("chaos soak: seed %d, %v fault phase\n", f.chaosSeed, f.duration)
	rep, err := tensordimm.RunChaos(tensordimm.ChaosConfig{
		Seed:     f.chaosSeed,
		Duration: f.duration,
		Log:      func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
		Registry: startMetrics(f),
	})
	fmt.Println(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tensorserve:", err)
		os.Exit(1)
	}
}

// deploySingle sizes and uploads one TensorNode deployment.
func deploySingle(model *tensordimm.Model, cfg tensordimm.ModelConfig, f flags) (*tensordimm.Node, *tensordimm.Deployment) {
	// Size the pool: tables + per-lane gather scratch + per-slot outputs,
	// with 2x slack for allocator alignment.
	lanes := f.workers * cfg.Tables
	embBytes := uint64(cfg.EmbBytes())
	need := uint64(cfg.TotalTableBytes()) +
		uint64(lanes)*2*uint64(f.maxBatch)*uint64(cfg.Reduction)*embBytes +
		uint64(f.workers)*uint64(cfg.Tables)*uint64(f.maxBatch)*embBytes
	perDIMM := (2*need/uint64(f.dimms) + 65535) / 65536 * 65536

	nd, err := tensordimm.NewNode(f.dimms, perDIMM)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := tensordimm.DeployConcurrent(model, nd, f.maxBatch, f.workers, lanes)
	if err != nil {
		log.Fatal(err)
	}
	return nd, dep
}

// runSingle drives one TensorNode behind a batched server (the PR 1 path).
func runSingle(model *tensordimm.Model, cfg tensordimm.ModelConfig, f flags) tally {
	nd, srv := makeServer(model, cfg, f, startMetrics(f))

	t := offer(f, cfg.Tables, cfg.TableRows, cfg.Reduction, cfg.EmbDim, "", srv.Infer, srv.Update)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Println(srv.Metrics())
	fmt.Println()
	t.report(f.rate)
	s := nd.Stats()
	fmt.Printf("NMP activity: %d instructions, %d blocks read, %d blocks written, %d ALU block ops\n",
		s.Instructions, s.BlocksRead, s.BlocksWritten, s.ALUBlockOps)
	nd.Close()
	return t
}

// runCluster drives the sharded multi-node cluster.
func runCluster(model *tensordimm.Model, cfg tensordimm.ModelConfig, f flags) tally {
	cl := makeCluster(model, f, startMetrics(f))

	t := offer(f, cfg.Tables, cfg.TableRows, cfg.Reduction, cfg.EmbDim, "", cl.Infer, cl.ApplyUpdates)
	if err := cl.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Println(cl.Metrics())
	t.report(f.rate)
	return t
}

func benchmark(name string) (tensordimm.ModelConfig, error) {
	switch strings.ToLower(name) {
	case "ncf":
		return tensordimm.NCF(), nil
	case "youtube":
		return tensordimm.YouTube(), nil
	case "fox":
		return tensordimm.Fox(), nil
	case "facebook":
		return tensordimm.Facebook(), nil
	default:
		return tensordimm.ModelConfig{}, fmt.Errorf("unknown model %q (want ncf, youtube, fox, facebook)", name)
	}
}

func poolingName(cfg tensordimm.ModelConfig) string {
	if cfg.Mean {
		return "mean pooling"
	}
	if cfg.Reduction == 1 {
		return "no pooling"
	}
	return "reduce pooling"
}
