package cluster

import (
	"strconv"

	"tensordimm/internal/stats"
	"tensordimm/internal/telemetry"
)

// Instrument registers the cluster's series on a telemetry registry and
// recursively instruments each shard's serve.Server (labeled shard="N").
// Per the registry ownership rules (ARCHITECTURE.md, "Observability
// plane"), the cluster owns the cluster_* series: request/sample/failure
// counters, per-shard routing and cache counters, the request latency and
// modeled-fabric histograms, and the route/gather/merge tracer. Call
// once, before the traffic it should observe.
func (c *Cluster) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	r := c.router
	reg.Counter("tensordimm_cluster_requests_total", "requests completed successfully", r.Requests.Load, labels...)
	reg.Counter("tensordimm_cluster_samples_total", "samples served across completed requests", r.Samples.Load, labels...)
	reg.Counter("tensordimm_cluster_failures_total", "requests failed", r.Failures.Load, labels...)
	reg.Counter("tensordimm_cluster_lookups_total", "embedding row lookups routed", r.Lookups.Load, labels...)
	reg.Counter("tensordimm_cluster_updates_total", "update batches applied", r.Updates.Load, labels...)
	reg.Counter("tensordimm_cluster_update_rows_total", "gradient rows routed across updates", r.UpdateRows.Load, labels...)
	reg.RegisterHistogram("tensordimm_cluster_request_seconds", "wall-clock request latency through the router", r.Latency, labels...)
	reg.RegisterHistogram("tensordimm_cluster_fabric_seconds", "modeled fabric transfer time per request", c.fabric, labels...)
	reg.RegisterHistogram("tensordimm_cluster_update_fabric_seconds", "modeled fabric transfer time per update batch", c.updFabric, labels...)
	r.tracer = reg.Tracer("cluster", 0, []string{"route", "gather", "merge"}, labels...)

	embBytes := uint64(c.mc.EmbBytes())
	for _, sh := range c.shard {
		sh := sh // captured by the derived byte series
		lbl := append(append([]telemetry.Label{}, labels...), telemetry.L("shard", strconv.Itoa(sh.id)))
		reg.Counter("tensordimm_cluster_sub_requests_total", "sub-requests dispatched to this shard", sh.subRequests.Load, lbl...)
		reg.Counter("tensordimm_cluster_rows_gathered_total", "embedding rows gathered from this shard", sh.rowsGathered.Load, lbl...)
		reg.Counter("tensordimm_cluster_partial_bytes_total", "gathered row bytes shipped shard to router", func() uint64 {
			return sh.rowsGathered.Load() * embBytes
		}, lbl...)
		reg.Counter("tensordimm_cluster_index_bytes_total", "index list bytes shipped router to shard", func() uint64 {
			return sh.rowsGathered.Load() * 4
		}, lbl...)
		reg.Counter("tensordimm_cluster_sub_updates_total", "sub-updates routed to this shard", sh.subUpdates.Load, lbl...)
		reg.Counter("tensordimm_cluster_rows_updated_total", "gradient rows scattered near-memory on this shard", sh.rowsUpdated.Load, lbl...)
		reg.Counter("tensordimm_cluster_update_bytes_total", "update bytes shipped router to shard", func() uint64 {
			return sh.rowsUpdated.Load() * (4 + embBytes)
		}, lbl...)
		if cache := sh.cache; cache != nil {
			reg.Counter("tensordimm_cluster_cache_hits_total", "hot-row cache hits", cache.hits.Load, lbl...)
			reg.Counter("tensordimm_cluster_cache_misses_total", "hot-row cache misses", cache.misses.Load, lbl...)
			reg.Counter("tensordimm_cluster_cache_invalidations_total", "hot rows invalidated by updates", cache.invalidations.Load, lbl...)
			reg.Gauge("tensordimm_cluster_cache_rows", "hot rows resident in the cache", func() float64 {
				return float64(cache.len())
			}, lbl...)
			reg.Gauge("tensordimm_cluster_cache_hit_rate", "lifetime hot-row cache hit rate", func() float64 {
				return stats.HitRate(cache.hits.Load(), cache.misses.Load())
			}, lbl...)
		}
		if sh.srv != nil {
			sh.srv.Instrument(reg, lbl...)
		}
	}
}
