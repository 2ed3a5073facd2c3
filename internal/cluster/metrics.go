package cluster

import "tensordimm/internal/serve"

// ShardMetrics is the part of one shard's counters the benchmark harness
// (bench/) reads, its only reason to exist; every other reader uses the
// shard's tensordimm_cluster_* and tensordimm_serve_* series.
type ShardMetrics struct {
	SubRequests  uint64        // sub-requests routed here
	RowsGathered uint64        // rows gathered near-memory (cache misses)
	Serve        serve.Metrics // the shard server's own bench/ counters
}

// Metrics is the part of the cluster's counters the benchmark harness
// (bench/) reads between intervals; bench/ is its only reason to exist.
// Every other reader uses the tensordimm_cluster_* series Instrument
// registers.
type Metrics struct {
	Requests      uint64         // cluster requests completed successfully
	CacheHits     uint64         // hot-row cache hits, all shards (0 without caches)
	CacheMisses   uint64         // hot-row cache misses, all shards
	Invalidations uint64         // cache entries removed by updates, all shards
	Shards        []ShardMetrics // one per shard, including empty shards
}

// Metrics snapshots the counters bench/ reads. Safe to call at any time,
// including after Close and concurrently with EmbedInto.
func (c *Cluster) Metrics() Metrics {
	m := Metrics{Requests: c.router.Requests.Load()}
	for _, sh := range c.shard {
		sm := ShardMetrics{SubRequests: sh.subRequests.Load(), RowsGathered: sh.rowsGathered.Load()}
		if sh.cache != nil {
			m.CacheHits += sh.cache.hits.Load()
			m.CacheMisses += sh.cache.misses.Load()
			m.Invalidations += sh.cache.invalidations.Load()
		}
		if sh.srv != nil {
			sm.Serve = sh.srv.Metrics()
		}
		m.Shards = append(m.Shards, sm)
	}
	return m
}
