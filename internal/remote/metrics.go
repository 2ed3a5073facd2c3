package remote

import (
	"strconv"

	"tensordimm/internal/telemetry"
)

// Metrics is a point-in-time snapshot of a router's counters.
type Metrics struct {
	// Requests, Samples, Lookups count completed reads, their samples,
	// and their routed lookups.
	Requests, Samples, Lookups uint64
	// Failures counts reads and updates that returned an error.
	Failures uint64
	// Updates, UpdateRows count completed update batches and their
	// gradient rows.
	Updates, UpdateRows uint64
	// Hedges counts hedged second attempts fired; HedgeWins counts the
	// requests the hedged attempt won.
	Hedges, HedgeWins uint64
	// Failovers counts failover replacement attempts started after a
	// transport loss or admission shed.
	Failovers uint64
	// Unavailable counts operations that failed with *Unavailable.
	Unavailable uint64
	// BreakerTrips counts per-replica circuit breakers tripped
	// closed->open; BreakerOpen is the number of replicas whose breaker is
	// currently rejecting traffic (open or half-open).
	BreakerTrips uint64
	BreakerOpen  int
	// RetriesDenied counts failovers refused by the shard retry budget
	// (the read failed typed instead of retrying).
	RetriesDenied uint64
	// DeadlineExceeded counts reads that failed with *DeadlineExceeded.
	DeadlineExceeded uint64
	// Resyncs counts completed replica catch-up replays; Replayed counts
	// the log entries those replays delivered.
	Resyncs, Replayed uint64
	// Snapshots counts full-table snapshots scraped and installed (each
	// trims its shard's log); Restores counts replicas reseated from a
	// snapshot via the RESTORE op.
	Snapshots, Restores uint64
	// ReplicasUp and ReplicasTotal describe the fleet's current health.
	ReplicasUp, ReplicasTotal int
	// LogEntries is the summed retained tail of the per-shard update logs
	// (entries past each shard's snapshot); bounded by shards x
	// SnapshotEvery, unlike the unbounded pre-durability log.
	LogEntries uint64
	// WALBytes is the summed on-disk size of the per-shard WALs (zero for
	// an in-memory router), trimmed to zero at each snapshot.
	WALBytes int64
	// Latency summarizes request wall-clock time.
	Latency telemetry.HistogramSnapshot
}

// Metrics snapshots the router's counters.
func (rc *RemoteCluster) Metrics() Metrics {
	m := Metrics{
		Requests:         rc.router.Requests.Load(),
		Samples:          rc.router.Samples.Load(),
		Lookups:          rc.router.Lookups.Load(),
		Failures:         rc.router.Failures.Load(),
		Updates:          rc.router.Updates.Load(),
		UpdateRows:       rc.router.UpdateRows.Load(),
		Hedges:           rc.hedges.Load(),
		HedgeWins:        rc.hedgeWins.Load(),
		Failovers:        rc.failovers.Load(),
		Unavailable:      rc.unavail.Load(),
		BreakerTrips:     rc.brkTrips.Load(),
		RetriesDenied:    rc.denied.Load(),
		DeadlineExceeded: rc.deadlines.Load(),
		Resyncs:          rc.resyncs.Load(),
		Replayed:         rc.replayed.Load(),
		Snapshots:        rc.snapshots.Load(),
		Restores:         rc.restores.Load(),
		Latency:          rc.router.Latency.Snapshot(),
	}
	rc.readFleet(&m)
	return m
}

// readFleet fills m's fleet-health and durability fields: replicas up and
// configured, breakers not closed, and the retained log tail and WAL bytes
// summed across shards, each store read under its shard's update lock.
func (rc *RemoteCluster) readFleet(m *Metrics) {
	for _, sh := range rc.shards {
		for _, rep := range sh.replicas {
			m.ReplicasTotal++
			if rep.state.Load() == repHealthy {
				m.ReplicasUp++
			}
			if rep.brk.state.Load() != brkClosed {
				m.BreakerOpen++
			}
		}
		if sh.store != nil {
			sh.updMu.Lock()
			m.LogEntries += sh.store.Head() - sh.store.Base()
			m.WALBytes += sh.store.WALBytes()
			sh.updMu.Unlock()
		}
	}
}

// Instrument registers the router's series on a telemetry registry: the
// remote_* counters over the existing atomics, fleet-health and
// durability gauges (replicas up, breakers open, retained log entries,
// WAL bytes — read at scrape time under the same locks Metrics takes),
// the read-latency histogram, and each shard store's persist counters
// (labeled shard="N"). Call once, before traffic.
func (rc *RemoteCluster) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	r := rc.router
	reg.Counter("tensordimm_remote_requests_total", "reads completed successfully", r.Requests.Load, labels...)
	reg.Counter("tensordimm_remote_samples_total", "samples served across completed reads", r.Samples.Load, labels...)
	reg.Counter("tensordimm_remote_lookups_total", "embedding row lookups routed", r.Lookups.Load, labels...)
	reg.Counter("tensordimm_remote_failures_total", "operations failed", r.Failures.Load, labels...)
	reg.Counter("tensordimm_remote_updates_total", "update batches applied", r.Updates.Load, labels...)
	reg.Counter("tensordimm_remote_update_rows_total", "gradient rows across applied updates", r.UpdateRows.Load, labels...)
	reg.Counter("tensordimm_remote_hedges_total", "hedged second attempts fired", rc.hedges.Load, labels...)
	reg.Counter("tensordimm_remote_hedge_wins_total", "reads won by the hedged attempt", rc.hedgeWins.Load, labels...)
	reg.Counter("tensordimm_remote_failovers_total", "failover replacement attempts started", rc.failovers.Load, labels...)
	reg.Counter("tensordimm_remote_unavailable_total", "operations failed with Unavailable", rc.unavail.Load, labels...)
	reg.Counter("tensordimm_remote_breaker_trips_total", "circuit breakers tripped closed to open", rc.brkTrips.Load, labels...)
	reg.Counter("tensordimm_remote_retries_denied_total", "failovers denied by the retry budget", rc.denied.Load, labels...)
	reg.Counter("tensordimm_remote_deadline_exceeded_total", "reads failed with DeadlineExceeded", rc.deadlines.Load, labels...)
	reg.Counter("tensordimm_remote_resyncs_total", "replica catch-up replays completed", rc.resyncs.Load, labels...)
	reg.Counter("tensordimm_remote_replayed_total", "log entries delivered by catch-up replays", rc.replayed.Load, labels...)
	reg.Counter("tensordimm_remote_snapshots_total", "shard snapshots scraped and installed", rc.snapshots.Load, labels...)
	reg.Counter("tensordimm_remote_restores_total", "replicas reseated from a snapshot", rc.restores.Load, labels...)
	fleet := func(field func(m *Metrics) float64) func() float64 {
		return func() float64 {
			var m Metrics
			rc.readFleet(&m)
			return field(&m)
		}
	}
	reg.Gauge("tensordimm_remote_replicas_up", "replicas currently healthy",
		fleet(func(m *Metrics) float64 { return float64(m.ReplicasUp) }), labels...)
	reg.Gauge("tensordimm_remote_replicas_total", "replicas configured across all shards",
		fleet(func(m *Metrics) float64 { return float64(m.ReplicasTotal) }), labels...)
	reg.Gauge("tensordimm_remote_breakers_open", "replica circuit breakers not closed",
		fleet(func(m *Metrics) float64 { return float64(m.BreakerOpen) }), labels...)
	reg.Gauge("tensordimm_remote_log_entries", "retained update-log tail entries across shards",
		fleet(func(m *Metrics) float64 { return float64(m.LogEntries) }), labels...)
	reg.Gauge("tensordimm_remote_wal_bytes", "on-disk WAL bytes across shards",
		fleet(func(m *Metrics) float64 { return float64(m.WALBytes) }), labels...)
	reg.RegisterHistogram("tensordimm_remote_request_seconds", "read latency through the replica router", r.Latency, labels...)
	for s, sh := range rc.shards {
		if sh.store != nil {
			sh.store.Instrument(reg, append(append([]telemetry.Label{}, labels...), telemetry.L("shard", strconv.Itoa(s)))...)
		}
	}
}
