package cluster

import (
	"time"

	"tensordimm/internal/serve"
	"tensordimm/internal/stats"
	"tensordimm/internal/telemetry"
)

// ShardMetrics is a point-in-time snapshot of one shard's counters.
type ShardMetrics struct {
	Shard         int           // shard id
	Tables        int           // global tables this shard holds a slice of
	Rows          int           // flat local table height
	SubRequests   uint64        // sub-requests routed here
	RowsGathered  uint64        // rows gathered near-memory (cache misses)
	CacheHits     uint64        // lookups served from the hot-row cache
	CacheMisses   uint64        // lookups that went to the gather path
	CacheRows     int           // rows currently resident in the cache
	HitRate       float64       // CacheHits / (CacheHits + CacheMisses)
	PartialBytes  uint64        // modeled bytes shipped shard -> router
	IndexBytes    uint64        // modeled bytes shipped router -> shard
	SubUpdates    uint64        // sub-updates scattered here
	RowsUpdated   uint64        // gradient rows accumulated near-memory
	Invalidations uint64        // hot-row cache entries removed by updates
	UpdateBytes   uint64        // modeled update bytes (indices + gradients) router -> shard
	Serve         serve.Metrics // the shard server's own metrics
}

// Metrics is a point-in-time snapshot of the cluster's counters. All
// latencies are in seconds.
type Metrics struct {
	Strategy Strategy      // sharding strategy in effect
	Nodes    int           // shard count
	Requests uint64        // cluster requests completed successfully
	Samples  uint64        // samples across completed requests
	Failures uint64        // requests or updates completed with an error
	Lookups  uint64        // individual (table, row) lookups routed
	Uptime   time.Duration // time since New

	// Updates counts completed ApplyUpdates calls; RowsUpdated the gradient
	// rows they routed; Invalidations the cache entries they removed.
	Updates       uint64
	RowsUpdated   uint64
	Invalidations uint64

	// CacheHits and CacheMisses aggregate the per-shard hot-row caches;
	// HitRate is their ratio (0 when caching is disabled).
	CacheHits   uint64
	CacheMisses uint64
	HitRate     float64

	// TransferBytes is the total modeled fabric traffic (index lists,
	// partial results, and update indices + gradients); Transfer digests
	// the modeled per-request fabric seconds and UpdateTransfer the modeled
	// per-update-batch fabric seconds (interconnect.Switch.ConvergeSeconds).
	TransferBytes  uint64
	Transfer       telemetry.HistogramSnapshot
	UpdateTransfer telemetry.HistogramSnapshot

	// TotalLatency digests the wall-clock seconds of routed reads,
	// submission to merged embedding.
	TotalLatency telemetry.HistogramSnapshot

	// Shards holds one entry per shard, including empty shards.
	Shards []ShardMetrics
}

// Metrics snapshots every counter. Safe to call at any time, including
// after Close and concurrently with EmbedInto.
func (c *Cluster) Metrics() Metrics {
	m := Metrics{
		Strategy:       c.cfg.Strategy,
		Nodes:          c.cfg.Nodes,
		Requests:       c.router.Requests.Load(),
		Samples:        c.router.Samples.Load(),
		Failures:       c.router.Failures.Load(),
		Lookups:        c.router.Lookups.Load(),
		Updates:        c.router.Updates.Load(),
		RowsUpdated:    c.router.UpdateRows.Load(),
		Uptime:         time.Since(c.started),
		Transfer:       c.fabric.Snapshot(),
		UpdateTransfer: c.updFabric.Snapshot(),
		TotalLatency:   c.router.Latency.Snapshot(),
	}
	for _, sh := range c.shard {
		sm := ShardMetrics{
			Shard:  sh.id,
			Tables: c.place.TablesOn(sh.id),
			Rows:   c.place.localRows[sh.id],
		}
		sm.SubRequests = sh.subRequests.Load()
		sm.RowsGathered = sh.rowsGathered.Load()
		sm.PartialBytes = sh.partialBytes.Load()
		sm.IndexBytes = sh.indexBytes.Load()
		sm.SubUpdates = sh.subUpdates.Load()
		sm.RowsUpdated = sh.rowsUpdated.Load()
		sm.UpdateBytes = sh.updateBytes.Load()
		if sh.cache != nil {
			sm.CacheHits = sh.cache.hits.Load()
			sm.CacheMisses = sh.cache.misses.Load()
			sm.Invalidations = sh.cache.invalidations.Load()
			sm.CacheRows = sh.cache.len()
			sm.HitRate = stats.HitRate(sm.CacheHits, sm.CacheMisses)
		}
		if sh.srv != nil {
			sm.Serve = sh.srv.Metrics()
		}
		m.CacheHits += sm.CacheHits
		m.CacheMisses += sm.CacheMisses
		m.Invalidations += sm.Invalidations
		m.TransferBytes += sm.PartialBytes + sm.IndexBytes + sm.UpdateBytes
		m.Shards = append(m.Shards, sm)
	}
	m.HitRate = stats.HitRate(m.CacheHits, m.CacheMisses)
	return m
}
