package main

// metric names one reported number. The two tables below are the
// benchmark's contract: BENCHMARK.json at the repository root lists exactly
// these names, units and directions (a unit test compares them), the
// untraced run reports every end-to-end metric and the traced run every
// per-layer one.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a caller of the serving stack sees. Every one is
// reported on every workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.20},
	{"lat_p50_us", "us", "lower", 0.20},
	{"lat_p90_us", "us", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.10},
}

// perLayer is the ledger: module names are the layers. A metric that does
// not apply to a workload (the cluster counters on inproc_gather, say) is
// printed as n/a and carried as 0 in the result object.
var perLayer = []metric{
	// Box-drift record and diagnostic companions of the end-to-end figures.
	{name: "harness.calib_cpu_ns", unit: "ns", better: "lower"},
	{name: "harness.calib_loopback_rtt_us", unit: "us", better: "lower"},
	{name: "harness.lat_p99_us", unit: "us", better: "lower"},
	{name: "harness.lat_p999_us", unit: "us", better: "lower"},
	{name: "harness.cpu_us_per_req", unit: "us", better: "lower"},
	{name: "harness.window_rps_iqr_frac", unit: "frac", better: "lower"},
	{name: "harness.upd_per_s", unit: "1/s", better: "higher"},
	{name: "harness.upd_lat_p50_us", unit: "us", better: "lower"},
	{name: "harness.upd_lat_p99_us", unit: "us", better: "lower"},
	{name: "harness.verify_checked", unit: "count", better: "higher"},
	{name: "harness.verify_mismatch", unit: "count", better: "lower"},
	{name: "harness.trace_overhead_frac", unit: "frac", better: "lower"},
	{name: "harness.unattributed_frac", unit: "frac", better: "lower"},

	{name: "wire.embed_req_codec_ns", unit: "ns", better: "lower"},
	{name: "wire.embed_resp_codec_ns", unit: "ns", better: "lower"},
	{name: "wire.update_codec_ns", unit: "ns", better: "lower"},
	{name: "wire.sync_codec_ns", unit: "ns", better: "lower"},
	{name: "wire.embed_req_bytes", unit: "B", better: "lower"},
	{name: "wire.embed_resp_bytes", unit: "B", better: "lower"},

	{name: "netclient.ping_rtt_us", unit: "us", better: "lower"},

	{name: "netserve.overhead_p50_us", unit: "us", better: "lower"},
	{name: "netserve.overhead_p90_us", unit: "us", better: "lower"},
	{name: "netserve.in_coalesce", unit: "req/frame", better: "higher"},
	{name: "netserve.out_coalesce", unit: "resp/frame", better: "higher"},
	{name: "netserve.exec_p99_us", unit: "us", better: "lower"},
	{name: "netserve.shed", unit: "count", better: "lower"},
	{name: "netserve.expired", unit: "count", better: "lower"},

	{name: "cluster.embed_p50_us", unit: "us", better: "lower"},
	{name: "cluster.embed_p90_us", unit: "us", better: "lower"},
	{name: "cluster.concurrency_mean", unit: "count", better: "lower"},
	{name: "cluster.apply_updates_p50_us", unit: "us", better: "lower"},
	{name: "cluster.embed_direct_us", unit: "us", better: "lower"},
	{name: "cluster.cache_hit_rate", unit: "frac", better: "higher"},
	{name: "cluster.invalidations_per_s", unit: "1/s", better: "lower"},
	{name: "cluster.rows_gathered_per_req", unit: "count", better: "lower"},
	{name: "cluster.subreqs_per_req", unit: "count", better: "lower"},

	{name: "serve.embed_direct_us", unit: "us", better: "lower"},
	{name: "serve.update_direct_us", unit: "us", better: "lower"},
	{name: "serve.batcher_overhead_us", unit: "us", better: "lower"},
	{name: "serve.mean_batch", unit: "count", better: "higher"},
	{name: "serve.queue_wait_p50_us", unit: "us", better: "lower"},

	{name: "runtime.run_embedding_us", unit: "us", better: "lower"},
	{name: "runtime.expand_indices_ns", unit: "ns", better: "lower"},
	{name: "runtime.apply_updates_us", unit: "us", better: "lower"},

	{name: "node.execute_us", unit: "us", better: "lower"},
	{name: "node.gather_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "node.blocks_read_per_req", unit: "count", better: "lower"},
	{name: "node.instructions_per_req", unit: "count", better: "lower"},
	{name: "node.read_floats_us", unit: "us", better: "lower"},
	{name: "node.emulation_slowdown_x", unit: "x", better: "lower"},

	// Simulated time of the modelled hardware: deterministic, never a
	// host measurement.
	{name: "core.sim_embed_us", unit: "us", better: "lower"},
	{name: "core.sim_tdimm_speedup_x", unit: "x", better: "higher"},

	{name: "remote.embed_p50_us", unit: "us", better: "lower"},
	{name: "remote.replica_embed_p50_us", unit: "us", better: "lower"},
	{name: "remote.router_overhead_p50_us", unit: "us", better: "lower"},
	{name: "remote.apply_updates_p50_us", unit: "us", better: "lower"},
	{name: "remote.hedges_per_kreq", unit: "count", better: "lower"},
	{name: "remote.hedge_wins", unit: "count", better: "higher"},
	{name: "remote.failovers", unit: "count", better: "lower"},
	{name: "remote.snapshots", unit: "count", better: "lower"},
	{name: "remote.wal_bytes_per_update", unit: "B", better: "lower"},

	{name: "persist.append_us", unit: "us", better: "lower"},
	{name: "persist.append_bytes", unit: "B", better: "lower"},
	{name: "persist.snapshot_install_ms", unit: "ms", better: "lower"},
	{name: "persist.recover_ms", unit: "ms", better: "lower"},
}
