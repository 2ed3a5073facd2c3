package remote

import (
	"strconv"

	"tensordimm/internal/telemetry"
)

// Metrics is the part of a router's counters the benchmark harness
// (bench/) reads between intervals; bench/ is its only reason to exist.
// Every other reader uses the tensordimm_remote_* series Instrument
// registers.
type Metrics struct {
	Requests          uint64 // reads completed
	Hedges, HedgeWins uint64 // hedged second attempts fired, and the reads they won
	Failovers         uint64 // failover attempts started after a transport loss or shed
	Snapshots         uint64 // shard snapshots scraped and installed
	ReplicasUp        int    // replicas currently healthy
	WALBytes          int64  // on-disk WAL bytes across shards (0 for an in-memory router)
}

// Metrics snapshots the counters bench/ reads. Like every fleet gauge, it
// takes no shard's update lock.
func (rc *RemoteCluster) Metrics() Metrics {
	return Metrics{
		Requests:   rc.router.Requests.Load(),
		Hedges:     rc.hedges.Load(),
		HedgeWins:  rc.hedgeWins.Load(),
		Failovers:  rc.failovers.Load(),
		Snapshots:  rc.snapshots.Load(),
		ReplicasUp: rc.countReplicas(healthy),
		WALBytes:   rc.walBytes(),
	}
}

// countReplicas counts the fleet's replicas for which keep holds.
func (rc *RemoteCluster) countReplicas(keep func(*replica) bool) (n int) {
	for _, sh := range rc.shards {
		for _, rep := range sh.replicas {
			if keep(rep) {
				n++
			}
		}
	}
	return n
}

// healthy reports whether rep is admitted to serve.
func healthy(rep *replica) bool { return rep.state.Load() == repHealthy }

// walBytes sums the shards' on-disk WAL sizes.
func (rc *RemoteCluster) walBytes() (n int64) {
	for _, sh := range rc.shards {
		if sh.store != nil {
			n += sh.store.WALBytes()
		}
	}
	return n
}

// logEntries sums the shards' retained log tails. Each reads Base before
// Head: both only grow and Base never passes Head, so a snapshot install
// racing the read cannot make the difference underflow.
func (rc *RemoteCluster) logEntries() (n uint64) {
	for _, sh := range rc.shards {
		if sh.store != nil {
			base := sh.store.Base()
			n += sh.store.Head() - base
		}
	}
	return n
}

// Instrument registers the router's series on a telemetry registry: the
// remote_* counters over the existing atomics, fleet-health and
// durability gauges (replicas up, breakers open, retained log entries,
// WAL bytes — read at scrape time from atomics, never under a shard's
// update lock), the read-latency histogram, and each shard store's
// persist counters (labeled shard="N"). Call once, before traffic.
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
	reg.Gauge("tensordimm_remote_replicas_up", "replicas currently healthy", func() float64 {
		return float64(rc.countReplicas(healthy))
	}, labels...)
	reg.Gauge("tensordimm_remote_replicas_total", "replicas configured across all shards", func() float64 {
		return float64(rc.countReplicas(func(*replica) bool { return true }))
	}, labels...)
	reg.Gauge("tensordimm_remote_breakers_open", "replica circuit breakers not closed", func() float64 {
		return float64(rc.countReplicas(func(rep *replica) bool { return rep.brk.state.Load() != brkClosed }))
	}, labels...)
	reg.Gauge("tensordimm_remote_log_entries", "retained update-log tail entries across shards", func() float64 {
		return float64(rc.logEntries())
	}, labels...)
	reg.Gauge("tensordimm_remote_wal_bytes", "on-disk WAL bytes across shards", func() float64 {
		return float64(rc.walBytes())
	}, labels...)
	reg.RegisterHistogram("tensordimm_remote_request_seconds", "read latency through the replica router", r.Latency, labels...)
	for s, sh := range rc.shards {
		if sh.store != nil {
			sh.store.Instrument(reg, append(append([]telemetry.Label{}, labels...), telemetry.L("shard", strconv.Itoa(s)))...)
		}
	}
}
