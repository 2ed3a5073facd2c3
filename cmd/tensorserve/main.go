// Command tensorserve runs the serving stack as one of six verbs, each
// parsing only its own flags (tensorserve VERB -h lists them):
//
//	run            drive an in-process TensorNode (or a sharded cluster)
//	               with a synthetic open-loop workload
//	serve ADDR     serve that node or cluster over TCP until SIGINT/SIGTERM
//	shard ADDR     serve one shard of a model split -nodes ways, as a replica
//	drive ADDR     drive the workload over TCP against a serve or shard process
//	route GROUPS   drive the workload through the failover router over
//	               replica groups of shard processes
//	chaos SEED     run a seeded chaos soak against an in-process replica fleet
//
// Every stack is a TensorNode sized for the tables it holds, deployed and
// fronted by a micro-batching server; with -nodes N > 1 or a hot-row cache
// (-cache-mb), run and serve shard the model across N of them behind the
// cluster router. Workloads are open loop: requests arrive at -rate
// whatever completes, -update-frac of them are SCATTER_ADD gradient
// updates, and -zipf S skews the lookup indices. A driving verb reports
// throughput and client-observed p50/p95/p99 latency and exits 1 if
// nothing completed or any request was lost.
//
// drive takes the model geometry from the server's handshake; route
// defines it locally and checks every replica's handshake against it. In
// GROUPS each /-separated group lists one shard's replicas: reads hedge and
// fail over inside a group and updates fan out with sequenced replay, so
// killing one replica loses no request. route -data-dir makes the update
// log durable, so a router killed mid-run resumes from the same directory;
// serve -data-dir persists each shard's hot rows at drain and pre-warms
// the caches from them at the next boot.
//
// Every stack registers on one telemetry registry. run, serve, shard and
// route end by printing its snapshot, one `name{labels} value` line per
// series; drive prints the server's, fetched with the METRICS op.
// -metrics-addr also serves the registry as /metrics, /metrics.json,
// /slow, /stream and /debug/pprof/.
//
// Usage:
//
//	tensorserve run                                  # YouTube-class model, defaults
//	tensorserve run -rate 4000 -duration 1s          # saturate: mean batch ~40
//	tensorserve run -model ncf -batch 4 -maxbatch 32 -workers 2
//	tensorserve run -nodes 4 -shard row -cache-mb 4 -zipf 0.9 -update-frac 0.2
//	tensorserve chaos 7 -duration 4s
//
//	tensorserve serve :7077 -nodes 4 -cache-mb 4 -metrics-addr :9090
//	tensorserve drive :7077 -rate 2000 -batch 4      # terminal 2: driver
//	curl -s localhost:9090/metrics | grep cache_hits # terminal 3: scrape
//
//	tensorserve shard :7171 -nodes 2 -shard-id 0     # shard 0, replica A
//	tensorserve shard :7172 -nodes 2 -shard-id 0     # shard 0, replica B
//	tensorserve shard :7173 -nodes 2 -shard-id 1     # shard 1, replica A
//	tensorserve shard :7174 -nodes 2 -shard-id 1     # shard 1, replica B
//	tensorserve route ":7171,:7172/:7173,:7174" -replicas 2 -rate 500 -update-frac 0.2
//	tensorserve route ":7171,:7172/:7173,:7174" -data-dir /var/lib/tensordimm -snapshot-every 256
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tensordimm"
)

// opts holds every verb's flag values. A verb registers only its own
// flags; the others stay zero and unused.
type opts struct {
	model                 string
	rows, dim, maxBatch   int
	dimms, workers, nodes int
	shardID, inflight     int
	strategy              string
	cacheMB               float64

	batch, conns       int
	rate, zipf         float64
	updFrac            float64
	duration, deadline time.Duration
	seed               int64

	replicas, snapEvery  int
	sticky               bool
	dataDir, metricsAddr string
	arg                  string     // the verb's operand: ADDR, GROUPS or SEED
	groups               [][]string // route's parsed GROUPS
}

// verb is one tensorserve subcommand.
type verb struct {
	operand string              // "ADDR", "GROUPS", "SEED", or "" for none
	flags   func(c *cmdline)    // registers the verb's flag groups
	check   func(o *opts) error // the verb's own rules beyond flag values; may be nil
	run     func(o *opts) int   // returns the exit code
}

var verbs = map[string]verb{
	"run": {"", func(c *cmdline) { c.modelFlags(); c.nodeFlags(); c.cacheFlag(); c.loadFlags(); c.metricsFlag() }, nil, runLocal},
	"serve": {"ADDR", func(c *cmdline) {
		c.modelFlags()
		c.nodeFlags()
		c.cacheFlag()
		c.serverFlags()
		c.dataDirFlag("persist each shard's hot rows here at drain and pre-warm the caches from them at boot")
	}, nil, runServe},
	"shard": {"ADDR", func(c *cmdline) {
		c.modelFlags()
		c.nodeFlags()
		c.serverFlags()
		c.fs.IntVar(&c.o.shardID, "shard-id", 0, "the shard of the -nodes-way split this replica serves")
	}, nil, runShard},
	"drive": {"ADDR", func(c *cmdline) { c.loadFlags(); c.clientFlags() }, nil, runDrive},
	"route": {"GROUPS", func(c *cmdline) {
		c.modelFlags()
		c.strategyFlag()
		c.loadFlags()
		c.clientFlags()
		c.metricsFlag()
		c.fs.IntVar(&c.o.replicas, "replicas", 0, "require every serving shard's group to list exactly this many replicas (0 skips the check)")
		c.fs.BoolVar(&c.o.sticky, "sticky", false, "attach read-only (sticky-shard routing): reads go straight to each replica group, updates are refused")
		c.dataDirFlag("durable update log: each shard's WAL and snapshots live here and a restarted router resumes from them")
		c.fs.IntVar(&c.o.snapEvery, "snapshot-every", 0, "log entries per shard between snapshots, which trim the update log (0 selects the default)")
	}, checkRoute, runRoute},
	"chaos": {"SEED", func(c *cmdline) { c.durationFlag("summed length of the fault phases"); c.metricsFlag() }, checkChaos, runChaos},
}

// cmdline is one parsed invocation: the verb, its flag set and the values.
type cmdline struct {
	name string
	v    verb
	fs   *flag.FlagSet
	o    opts
}

func (c *cmdline) usage() string {
	return strings.TrimSuffix("tensorserve "+c.name+" "+c.v.operand, " ") + " [flags]"
}

// modelFlags is the model geometry: what run, serve and shard build, and
// what route must agree with.
func (c *cmdline) modelFlags() {
	c.fs.StringVar(&c.o.model, "model", "youtube", "benchmark model: ncf, youtube, fox, facebook")
	c.fs.IntVar(&c.o.rows, "rows", 4000, "rows per embedding table (paper-scale tables are hundreds of GBs; geometry is what matters)")
	c.fs.IntVar(&c.o.dim, "dim", 256, "embedding dimension (a node needs a multiple of dimms x 16)")
	c.fs.IntVar(&c.o.maxBatch, "maxbatch", 64, "samples per request at most (a shard's sub-batch cap follows from it)")
}

// nodeFlags sizes each TensorNode and its server, and splits the model
// across -nodes of them.
func (c *cmdline) nodeFlags() {
	c.fs.IntVar(&c.o.dimms, "dimms", 8, "TensorDIMMs per node")
	c.fs.IntVar(&c.o.workers, "workers", 4, "concurrent batch executors per node (= deployment slots)")
	c.fs.IntVar(&c.o.nodes, "nodes", 1, "TensorNode shards the model splits into")
	c.strategyFlag()
}

func (c *cmdline) strategyFlag() {
	c.fs.StringVar(&c.o.strategy, "shard", "table", "sharding: table (whole tables round-robin) or row (rows hashed across shards)")
}

func (c *cmdline) cacheFlag() {
	c.fs.Float64Var(&c.o.cacheMB, "cache-mb", 0, "per-shard hot-row cache in MiB (0 disables; a cache selects the cluster even on one node)")
}

// serverFlags is what a serving process adds: admission and telemetry.
func (c *cmdline) serverFlags() {
	c.fs.IntVar(&c.o.inflight, "inflight", 256, "admission budget: in-flight requests beyond it are shed with OVERLOADED")
	c.metricsFlag()
}

// loadFlags is the open-loop workload.
func (c *cmdline) loadFlags() {
	c.fs.IntVar(&c.o.batch, "batch", 1, "samples per request")
	c.fs.Float64Var(&c.o.rate, "rate", 1000, "offered load in requests/second (open loop)")
	c.durationFlag("how long to offer load")
	c.fs.Float64Var(&c.o.zipf, "zipf", 0, "Zipf exponent of the lookup indices (0.9 matches production skew fits; 0 draws them uniformly)")
	c.fs.Int64Var(&c.o.seed, "seed", 1, "workload seed")
	c.fs.Float64Var(&c.o.updFrac, "update-frac", 0, "fraction of requests that are SCATTER_ADD gradient updates (0..1)")
}

func (c *cmdline) durationFlag(usage string) {
	c.fs.DurationVar(&c.o.duration, "duration", 2*time.Second, usage)
}

// clientFlags is a network driver's connection pool and request budget.
func (c *cmdline) clientFlags() {
	c.fs.IntVar(&c.o.conns, "conns", 2, "connections per server")
	c.fs.DurationVar(&c.o.deadline, "deadline", 0, "end-to-end deadline per request, propagated to the server so both sides shed expired work (0 disables)")
}

func (c *cmdline) dataDirFlag(usage string) { c.fs.StringVar(&c.o.dataDir, "data-dir", "", usage) }

func (c *cmdline) metricsFlag() {
	c.fs.StringVar(&c.o.metricsAddr, "metrics-addr", "", "serve the admin endpoint on this address (e.g. 127.0.0.1:9090): /metrics, /metrics.json, /slow, /stream, /debug/pprof/")
}

// checkValues rejects out-of-range values of the flags the verb defines.
func (c *cmdline) checkValues() error {
	o := &c.o
	stripe := 16 * o.dimms
	rules := []struct {
		flag string
		bad  bool
		why  string
	}{
		{"model", models[strings.ToLower(o.model)] == nil, "is not one of ncf, youtube, fox, facebook"},
		{"rows", o.rows < 1, "must be at least 1"},
		{"dim", o.dim < 1, "must be at least 1"},
		{"maxbatch", o.maxBatch < 1, "must be at least 1"},
		{"dimms", o.dimms < 1, "must be at least 1"},
		{"dimms", stripe > 0 && o.dim%stripe != 0, fmt.Sprintf("does not stripe -dim %d: it must be a multiple of dimms x 16 = %d", o.dim, stripe)},
		{"workers", o.workers < 1, "must be at least 1"},
		{"nodes", o.nodes < 1, "must be at least 1"},
		{"shard", o.strategy != "table" && o.strategy != "row", "must be table or row"},
		{"shard-id", o.shardID < 0 || o.shardID >= o.nodes, fmt.Sprintf("is out of range: the model splits into -nodes %d shards", o.nodes)},
		{"cache-mb", o.cacheMB < 0, "must not be negative"},
		{"data-dir", c.fs.Lookup("cache-mb") != nil && o.dataDir != "" && o.cacheMB == 0, "persists hot-row caches: it needs -cache-mb"},
		{"inflight", o.inflight < 1, "must be at least 1"},
		{"batch", o.batch < 1, "must be at least 1"},
		{"batch", c.fs.Lookup("maxbatch") != nil && o.batch > o.maxBatch, fmt.Sprintf("exceeds -maxbatch %d: the server would reject every request", o.maxBatch)},
		{"rate", o.rate <= 0, "must be positive"},
		{"duration", o.duration <= 0, "must be positive"},
		{"zipf", o.zipf < 0, "must not be negative (0 draws indices uniformly)"},
		{"update-frac", o.updFrac < 0 || o.updFrac > 1, "must be in [0, 1]"},
		{"conns", o.conns < 1, "must be at least 1"},
		{"deadline", o.deadline < 0, "must not be negative (0 disables)"},
		{"replicas", o.replicas < 0, "must not be negative"},
		{"snapshot-every", o.snapEvery < 0, "must not be negative (0 selects the default)"},
	}
	for _, r := range rules {
		if f := c.fs.Lookup(r.flag); r.bad && f != nil {
			return fmt.Errorf("-%s %s %s", r.flag, f.Value, r.why)
		}
	}
	return nil
}

// checkRoute parses GROUPS and applies the rules among route's own flags.
func checkRoute(o *opts) error {
	groups, err := parseJoin(o.arg)
	if err != nil {
		return err
	}
	for s, g := range groups {
		if o.replicas > 0 && len(g) > 0 && len(g) != o.replicas {
			return fmt.Errorf("-replicas %d: shard %d's group lists %d addresses", o.replicas, s, len(g))
		}
	}
	if o.sticky && o.updFrac > 0 {
		return fmt.Errorf("-sticky refuses -update-frac %g: a sticky (read-only) router routes no updates; drive them through the fleet's writer", o.updFrac)
	}
	if o.sticky && o.dataDir != "" {
		return fmt.Errorf("-data-dir cannot be combined with -sticky: a read-only router owns no update log (the fleet's writer persists it)")
	}
	o.groups = groups
	return nil
}

// checkChaos parses SEED.
func checkChaos(o *opts) error {
	seed, err := strconv.ParseInt(o.arg, 10, 64)
	if err != nil || seed == 0 {
		return fmt.Errorf("SEED %q must be a non-zero integer", o.arg)
	}
	o.seed = seed
	return nil
}

// parseJoin splits route's GROUPS into per-shard replica address groups:
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
				return nil, fmt.Errorf("GROUPS: shard %d's group %q has an empty address", s, g)
			}
			addrs = append(addrs, a)
		}
		groups = append(groups, addrs)
	}
	return groups, nil
}

// parse turns the arguments after the program name into a checked
// invocation. Every error it returns is a usage error.
func parse(args []string) (*cmdline, error) {
	if len(args) == 0 {
		return nil, errors.New("missing verb: run, serve, shard, drive, route or chaos")
	}
	v, ok := verbs[args[0]]
	if !ok {
		return nil, fmt.Errorf("unknown verb %q: want run, serve, shard, drive, route or chaos", args[0])
	}
	c := &cmdline{name: args[0], v: v, fs: flag.NewFlagSet(args[0], flag.ContinueOnError)}
	c.fs.SetOutput(io.Discard)
	v.flags(c)
	// The operand may come before the flags (serve :7077 -nodes 4) or after.
	args = args[1:]
	if v.operand != "" && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		c.o.arg, args = args[0], args[1:]
	}
	if err := c.fs.Parse(args); err != nil {
		return c, err
	}
	rest := c.fs.Args()
	if v.operand != "" && c.o.arg == "" && len(rest) > 0 {
		c.o.arg, rest = rest[0], rest[1:]
	}
	if len(rest) > 0 || (v.operand != "") != (c.o.arg != "") {
		return c, fmt.Errorf("usage: %s", c.usage())
	}
	if err := c.checkValues(); err != nil {
		return c, err
	}
	if v.check != nil {
		return c, v.check(&c.o)
	}
	return c, nil
}

func main() {
	c, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		fmt.Println("usage:", c.usage())
		c.fs.SetOutput(os.Stdout)
		c.fs.PrintDefaults()
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tensorserve:", err, "(tensorserve VERB -h lists a verb's flags)")
		os.Exit(2)
	}
	os.Exit(c.v.run(&c.o))
}

// models are the benchmark models of the paper's evaluation, by -model name.
var models = map[string]func() tensordimm.ModelConfig{
	"ncf": tensordimm.NCF, "youtube": tensordimm.YouTube, "fox": tensordimm.Fox, "facebook": tensordimm.Facebook,
}

// modelConfig is the benchmark model the flags describe.
func modelConfig(o *opts) tensordimm.ModelConfig {
	cfg := models[strings.ToLower(o.model)]()
	cfg.TableRows, cfg.EmbDim = o.rows, o.dim
	return cfg
}

// buildModel builds the deterministic model every process of a fleet
// builds from the same flags and seed, and prints its shape.
func buildModel(o *opts) *tensordimm.Model {
	cfg := modelConfig(o)
	model, err := tensordimm.BuildModel(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %s: %d tables x %d rows, dim %d, %d-way %s\n",
		cfg.Name, cfg.Tables, cfg.TableRows, cfg.EmbDim, cfg.Reduction, poolingName(cfg))
	return model
}

func clusterConfig(o *opts) tensordimm.ClusterConfig {
	strategy := tensordimm.TableWise
	if o.strategy == "row" {
		strategy = tensordimm.RowWise
	}
	return tensordimm.ClusterConfig{
		Nodes:        o.nodes,
		Strategy:     strategy,
		DIMMsPerNode: o.dimms,
		MaxBatch:     o.maxBatch,
		Workers:      o.workers,
		CacheBytes:   int64(o.cacheMB * (1 << 20)),
	}
}

// deploy builds the stack run and serve share: one node behind a server,
// or — with -nodes N > 1 or a hot-row cache — the sharded cluster.
func deploy(model *tensordimm.Model, o *opts, reg *tensordimm.TelemetryRegistry) (*tensordimm.Server, *tensordimm.Cluster) {
	if o.nodes > 1 || o.cacheMB > 0 {
		cc := clusterConfig(o)
		cl, err := tensordimm.NewCluster(model, cc)
		if err != nil {
			log.Fatal(err)
		}
		cl.Instrument(reg)
		fmt.Printf("cluster: %d shards (%s), %d TensorDIMMs each, %.1f MiB cache per shard\n",
			o.nodes, cc.Strategy, o.dimms, o.cacheMB)
		fmt.Printf("shards: maxBatch %d samples/request, %d workers each\n", o.maxBatch, o.workers)
		return nil, cl
	}
	srv, err := tensordimm.DeployServer(model, o.dimms, tensordimm.ServeConfig{MaxBatch: o.maxBatch, Workers: o.workers})
	if err != nil {
		log.Fatal(err)
	}
	describe(srv, o, reg)
	return srv, nil
}

// describe instruments one node's server and prints the node and server.
func describe(srv *tensordimm.Server, o *opts, reg *tensordimm.TelemetryRegistry) {
	srv.Instrument(reg)
	nd := srv.Node()
	g := srv.Geometry()
	fmt.Printf("node: %d TensorDIMMs, %.0f MiB pool, %d B stripe\n",
		nd.NodeDim(), float64(nd.CapacityBytes())/(1<<20), nd.StripeBytes())
	fmt.Printf("server: maxBatch %d, %d workers, %d lanes\n", g.MaxBatch, o.workers, o.workers*g.Tables)
}

// offer runs the flags' open-loop workload against read and update — the
// one path every driving verb takes. Reads look up batch samples over every
// table of the served geometry g through the layer's EmbedInto; updates are
// SCATTER_ADD gradients for batch rows of one random table. over names the
// transport for the banner.
func offer(o *opts, g tensordimm.NetGeometry, over string,
	read func([]float32, [][]int, int) ([]float32, error), update func([]tensordimm.TableUpdate) error) tally {

	var gen *tensordimm.WorkloadGenerator
	var err error
	dist := "uniform"
	if o.zipf > 0 {
		dist = fmt.Sprintf("zipf(%.2g)", o.zipf)
		gen, err = tensordimm.NewZipfWorkload(g.TableRows, o.zipf, o.seed)
	} else {
		gen, err = tensordimm.NewWorkload(g.TableRows, tensordimm.Uniform, o.seed)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offering %.0f req/s x %v, batch %d, %s indices, %.0f%% updates (open loop%s)\n\n",
		o.rate, o.duration, o.batch, dist, 100*o.updFrac, over)
	rng := rand.New(rand.NewSource(o.seed))
	return drive(o.rate, o.duration, o.updFrac, o.seed,
		func() func() error {
			idx := gen.Batch(g.Tables, o.batch, g.Reduction)
			return func() error { _, err := read(nil, idx, o.batch); return err }
		},
		func() func() error {
			urows := gen.Indices(o.batch)
			grads := tensordimm.NewTensor(len(urows), g.Dim)
			for i := range grads.Data() {
				grads.Data()[i] = rng.Float32()*0.02 - 0.01
			}
			ups := []tensordimm.TableUpdate{{Table: rng.Intn(g.Tables), Rows: urows, Grads: grads}}
			return func() error { return update(ups) }
		})
}

// startMetrics builds the process registry, with the Go runtime series,
// that the verb's stack registers on and its exit report renders. With
// -metrics-addr it is also served over HTTP for the life of the process.
func startMetrics(o *opts) *tensordimm.TelemetryRegistry {
	reg := tensordimm.NewTelemetry()
	tensordimm.RegisterGoRuntime(reg)
	if o.metricsAddr == "" {
		return reg
	}
	l, err := net.Listen("tcp", o.metricsAddr)
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

// printMetrics prints a verb's exit report: the registry's snapshot, one
// line per series.
func printMetrics(reg *tensordimm.TelemetryRegistry) { reg.Snapshot().WriteText(os.Stdout) }

// hotRowsTopK bounds how many of a cluster shard's resident rows (those
// referenced since the cache's last sweep first) are persisted at drain;
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

// serveNet fronts backend with the network plane on the verb's ADDR until
// SIGINT/SIGTERM, then drains gracefully and prints the exit report.
// The caller closes the backend.
func serveNet(backend tensordimm.NetBackend, role tensordimm.NetRole, o *opts, reg *tensordimm.TelemetryRegistry) {
	srv, err := tensordimm.NewNetServer(backend, tensordimm.NetServeConfig{MaxInflight: o.inflight, Role: role, Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", o.arg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening on %s (admission budget %d in-flight); SIGINT/SIGTERM drains and exits\n",
		l.Addr(), o.inflight)
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
	printMetrics(reg)
}

// closeOrDie closes a backend at exit.
func closeOrDie(close func() error) {
	if err := close(); err != nil {
		log.Fatal(err)
	}
}

// runLocal drives the in-process node or cluster.
func runLocal(o *opts) int {
	model := buildModel(o)
	reg := startMetrics(o)
	srv, cl := deploy(model, o, reg)
	var t tally
	if cl != nil {
		t = offer(o, cl.Geometry(), "", cl.EmbedInto, cl.ApplyUpdates)
		closeOrDie(cl.Close)
		printMetrics(reg)
	} else {
		t = offer(o, srv.Geometry(), "", srv.EmbedInto, srv.Update)
		closeOrDie(srv.Close)
		printMetrics(reg)
		// Node stats are not registry series.
		s := srv.Node().Stats()
		fmt.Printf("NMP activity: %d instructions, %d blocks read, %d blocks written, %d ALU block ops\n",
			s.Instructions, s.BlocksRead, s.BlocksWritten, s.ALUBlockOps)
	}
	fmt.Println()
	t.report(o.rate)
	return t.exitCode()
}

// runServe serves the node or cluster over TCP; with -data-dir, a cluster
// warms its caches from the previous run's hot rows and persists its own
// at drain.
func runServe(o *opts) int {
	model := buildModel(o)
	reg := startMetrics(o)
	srv, cl := deploy(model, o, reg)
	if cl == nil {
		serveNet(tensordimm.ServeBackend(srv), tensordimm.RoleStandalone, o, reg)
		closeOrDie(srv.Close)
		return 0
	}
	if o.dataDir != "" {
		warmCluster(cl, o.dataDir, o.nodes)
	}
	serveNet(cl, tensordimm.RoleStandalone, o, reg)
	if o.dataDir != "" {
		persistHotRows(cl, o.dataDir, o.nodes)
	}
	closeOrDie(cl.Close)
	return 0
}

// runShard serves shard -shard-id as a replica: the DeployShard stack a
// cluster shard runs, identical in every replica built from the same flags.
func runShard(o *opts) int {
	model := buildModel(o)
	reg := startMetrics(o)
	cc := clusterConfig(o)
	srv, err := tensordimm.DeployShard(model, cc, o.shardID)
	if err != nil {
		log.Fatal(err)
	}
	g := srv.Geometry()
	fmt.Printf("shard %d of %d (%s): %d local rows, sub-batch cap %d samples\n",
		o.shardID, o.nodes, cc.Strategy, g.TableRows, g.MaxBatch)
	describe(srv, o, reg)
	serveNet(tensordimm.ServeBackend(srv), tensordimm.RoleReplica, o, reg)
	closeOrDie(srv.Close)
	return 0
}

// runDrive drives the workload over TCP, with the geometry from the
// server's handshake. Shed requests (OVERLOADED) are counted, not fatal:
// past the knee they are admission control working as designed.
func runDrive(o *opts) int {
	cl, err := tensordimm.DialNet(o.arg, tensordimm.NetClientConfig{
		Conns:    o.conns,
		RetryFor: 5 * time.Second,
		Deadline: o.deadline,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	g := cl.Geometry()
	fmt.Printf("connected to %s over %d conns: %d tables x %d rows, dim %d, reduction %d, max batch %d\n",
		o.arg, o.conns, g.Tables, g.TableRows, g.Dim, g.Reduction, g.MaxBatch)
	if o.batch > g.MaxBatch {
		fmt.Fprintf(os.Stderr, "tensorserve: -batch %d exceeds the server's max batch %d\n", o.batch, g.MaxBatch)
		return 2
	}
	t := offer(o, g, " over TCP", cl.EmbedInto, cl.Update)
	t.report(o.rate)
	if snap, err := cl.Metrics(); err == nil {
		fmt.Printf("\nserver %s:\n", o.arg)
		snap.WriteText(os.Stdout)
	} else {
		fmt.Fprintln(os.Stderr, "tensorserve: fetching server metrics:", err)
	}
	return t.exitCode()
}

// runRoute drives the workload through the failover router. The router
// retries sheds and fails over transport losses itself, so any surfaced
// error is a lost request and fails the run.
func runRoute(o *opts) int {
	cfg := modelConfig(o)
	strategy := clusterConfig(o).Strategy
	rc, err := tensordimm.NewRemoteCluster(tensordimm.RemoteConfig{
		Model:         cfg,
		Strategy:      strategy,
		Shards:        o.groups,
		MaxBatch:      o.maxBatch,
		Conns:         o.conns,
		RetryFor:      5 * time.Second,
		ReadOnly:      o.sticky,
		DataDir:       o.dataDir,
		SnapshotEvery: o.snapEvery,
		Deadline:      o.deadline,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rc.Close()
	reg := startMetrics(o)
	rc.Instrument(reg)
	replicas := 0
	for _, g := range o.groups {
		replicas += len(g)
	}
	mode := ""
	if o.sticky {
		mode = ", sticky read-only"
	}
	if o.dataDir != "" {
		mode = fmt.Sprintf(", durable log at %s", o.dataDir)
	}
	fmt.Printf("joined %d shards (%s%s) over %d replicas: %d tables x %d rows, dim %d, %d-way %s\n",
		len(o.groups), strategy, mode, replicas, cfg.Tables, cfg.TableRows, cfg.EmbDim,
		cfg.Reduction, poolingName(cfg))
	t := offer(o, rc.Geometry(), " over replica groups", rc.EmbedInto, rc.ApplyUpdates)
	t.report(o.rate)
	printMetrics(reg)
	return t.exitCode()
}

// runChaos runs the seeded chaos soak (internal/chaos) and exits 1 on any
// invariant violation.
func runChaos(o *opts) int {
	fmt.Printf("chaos soak: seed %d, %v fault phase\n", o.seed, o.duration)
	rep, err := tensordimm.RunChaos(tensordimm.ChaosConfig{
		Seed:     o.seed,
		Duration: o.duration,
		Log:      func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
		Registry: startMetrics(o),
	})
	fmt.Println(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tensorserve:", err)
		return 1
	}
	return 0
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
