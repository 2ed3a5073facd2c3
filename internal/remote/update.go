package remote

import (
	"errors"
	"fmt"
	"time"

	"tensordimm/internal/netclient"
	"tensordimm/internal/runtime"
	"tensordimm/internal/wire"
)

// maxShedRetries bounds how often one log entry (or snapshot chunk) is
// re-sent to a replica that sheds it under admission control before the
// replica is dropped from the group (the janitor re-admits it through a
// fresh catch-up).
const maxShedRetries = 200

// retryShed runs one replica call, re-sending it every 2 ms while the
// replica sheds it under admission control (wire.ErrOverloaded), at most
// maxShedRetries times; it returns the first other outcome, or the last
// shed.
func retryShed(send func() (uint64, error)) (uint64, error) {
	for sheds := 0; ; sheds++ {
		seq, err := send()
		var se *netclient.ServerError
		if err == nil || sheds == maxShedRetries || !errors.As(err, &se) || se.Code != wire.ErrOverloaded {
			return seq, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ApplyUpdates applies a batch of per-table gradient updates fleet-wide:
// the shared router core (cluster.Router.ApplyUpdates) validates the
// batch and splits every entry's rows by placement into per-shard
// sub-updates, each sub-update is appended to the owning shard's log and
// fanned out to the shard's live replicas with the sequenced SYNC op
// (appendAndFan), and replicas that are down catch the entry up later by
// replaying the log.
//
// Ordering. Updates to the same global table are serialized (slice order
// within one call, lock order across calls) and reach every replica of a
// shard in identical log order, so after ApplyUpdates returns every
// subsequent read — from any replica — observes the update bit-identically.
// Updates to distinct tables proceed concurrently. The OnApplied hook
// fires under the table lock in exactly the sequenced order.
//
// A replica dropping mid-fan-out does not fail the update as long as at
// least one replica of each touched shard absorbs it; the dropped replica
// replays the gap on reconnect. Only when a shard's whole replica group
// is unreachable does ApplyUpdates return a typed *Unavailable — the
// entry stays in the log and still reaches the fleet when a replica
// returns, so a caller tracking a reference model must treat an
// Unavailable update as applied-eventually, not discarded.
func (rc *RemoteCluster) ApplyUpdates(ups []runtime.TableUpdate) error {
	if rc.cfg.ReadOnly {
		return ErrReadOnly
	}
	return rc.router.ApplyUpdates(ups)
}

// appendAndFan sequences one sub-update into the shard's durable log and
// drives every live replica to the new log head. The append happens
// strictly before any replica sees the entry — the crash-consistency
// invariant: the durable log is always a superset of any replica's
// applied state, so a restarted router can re-drive its fleet from the
// log alone. A replica that fails mid-stream is dropped (it replays on
// reconnect); a replica mid-catch-up counts as reached, because it cannot
// turn healthy without replaying through this entry — the replay runs
// under the same updMu. When the entry pushes the retained tail past the
// snapshot interval, a full-table snapshot is scraped and the log prefix
// trimmed before the lock is released.
func (rc *RemoteCluster) appendAndFan(sh *rShard, sub runtime.TableUpdate) error {
	sh.updMu.Lock()
	defer sh.updMu.Unlock()
	if err := sh.store.Append(sub); err != nil {
		rc.unavail.Add(1)
		return fmt.Errorf("remote: shard %d: %w", sh.id, err)
	}
	reached, pending := 0, 0
	var lastErr error
	for _, rep := range sh.replicas {
		switch rep.state.Load() {
		case repSyncing:
			pending++
			continue
		case repDown:
			continue
		}
		if err := rc.catchUp(sh, rep); err != nil {
			rep.state.Store(repDown)
			lastErr = err
			continue
		}
		reached++
	}
	if reached == 0 && pending == 0 {
		rc.unavail.Add(1)
		return &Unavailable{Shard: sh.id, Err: lastErr}
	}
	if sh.store.NeedSnapshot() {
		rc.snapshotShard(sh)
	}
	return nil
}

// catchUp drives one replica from its applied count to the shard's log
// head (callers hold the shard's updMu): a chunked snapshot reseat when
// the replica is below the log's trim horizon, then sequenced replay one
// entry at a time. Admission-control sheds are retried (retryShed); any
// other error aborts and leaves the replica where it stopped.
func (rc *RemoteCluster) catchUp(sh *rShard, rep *replica) error {
	head := sh.store.Head()
	if rep.applied > head {
		return fmt.Errorf("remote: shard %d replica %s reports %d applied updates, above the router's log head %d — it served a different writer",
			sh.id, rep.addr, rep.applied, head)
	}
	if rep.applied < sh.store.Base() {
		if err := rc.restoreReplica(sh, rep); err != nil {
			return err
		}
	}
	for rep.applied < head {
		srvSeq, err := retryShed(func() (uint64, error) {
			return rep.cl.Sync(rep.applied, sh.store.Entries(rep.applied)[:1])
		})
		if err != nil {
			return err
		}
		if srvSeq > head || srvSeq <= rep.applied {
			return fmt.Errorf("remote: shard %d replica %s acknowledged sequence %d after replaying entry %d of %d — it served a different writer",
				sh.id, rep.addr, srvSeq, rep.applied, head)
		}
		rep.applied = srvSeq
	}
	return nil
}

// restoreReplica reseats a replica whose applied count is below the log's
// trim horizon — replay alone cannot reach it, because the covering
// entries were trimmed when the snapshot was installed. The snapshot's
// absolute rows stream over in MaxRestoreRows-sized chunks; the final
// chunk commits, fast-forwarding the replica's applied counter to the
// snapshot's sequence, after which the caller replays the remaining tail.
// Callers hold the shard's updMu.
func (rc *RemoteCluster) restoreReplica(sh *rShard, rep *replica) error {
	snapSeq, vals, ok := sh.store.Snapshot()
	if !ok {
		return fmt.Errorf("remote: shard %d: no snapshot covers sequences below %d", sh.id, sh.store.Base())
	}
	dim := rc.cfg.Model.EmbDim
	localRows := rc.place.LocalRows(sh.id)
	chunk := rep.cl.MaxRestoreRows()
	rowIdx := make([]int, 0, chunk)
	for at := 0; at < localRows; {
		n := min(chunk, localRows-at)
		rowIdx = rowIdx[:0]
		for r := at; r < at+n; r++ {
			rowIdx = append(rowIdx, r)
		}
		commit := at+n == localRows
		srvSeq, err := retryShed(func() (uint64, error) {
			return rep.cl.Restore(snapSeq, commit, 0, rowIdx, vals[at*dim:(at+n)*dim])
		})
		if err != nil {
			return err
		}
		if commit && srvSeq != snapSeq {
			return fmt.Errorf("remote: shard %d replica %s acknowledged sequence %d after a snapshot install at %d — it served a different writer",
				sh.id, rep.addr, srvSeq, snapSeq)
		}
		at += n
	}
	rep.applied = snapSeq
	rc.restores.Add(1)
	return nil
}

// snapshotShard trims the shard's log by scraping the full table from a
// replica that has applied every entry and installing it as the new
// snapshot. The router holds no weights, so the scrape is how it obtains
// absolute table state — and because the source replica sits exactly at
// the log head under updMu (no fan-out can interleave), the scraped rows
// are bit-identical to golden at that sequence. Best-effort: any scrape
// failure just leaves the log untrimmed and the next append retries.
// The scrape lands in the table the previous install retired (snapSpare),
// so a long-running writer cycles two tables per shard instead of
// allocating one per snapshot. Callers hold the shard's updMu.
func (rc *RemoteCluster) snapshotShard(sh *rShard) {
	head := sh.store.Head()
	var src *replica
	for _, rep := range sh.replicas {
		if rep.state.Load() == repHealthy && rep.applied == head {
			src = rep
			break
		}
	}
	if src == nil {
		return
	}
	dim := rc.cfg.Model.EmbDim
	localRows := rc.place.LocalRows(sh.id)
	vals := sh.snapSpare
	if len(vals) != localRows*dim {
		vals = make([]float32, localRows*dim)
	}
	sh.snapSpare = vals // stays the spare unless the install adopts it
	rowsArg := [][]int{nil}
	rowIdx := make([]int, 0, sh.maxSub)
	for at := 0; at < localRows; {
		n := min(sh.maxSub, localRows-at)
		rowIdx = rowIdx[:0]
		for r := at; r < at+n; r++ {
			rowIdx = append(rowIdx, r)
		}
		rowsArg[0] = rowIdx
		if _, err := src.cl.EmbedInto(vals[at*dim:(at+n)*dim], rowsArg, n); err != nil {
			return
		}
		at += n
	}
	// The log lets go of its previous table when it adopts vals; restores
	// read it only under updMu, so nothing else still references it.
	_, retired, _ := sh.store.Snapshot()
	if err := sh.store.InstallSnapshot(head, vals); err == nil {
		sh.snapSpare = retired
		rc.snapshots.Add(1)
	}
}

// resync re-admits a recovered replica: flip it to syncing, replay the
// log suffix its handshake says it is missing, and only then mark it
// healthy so reads route to it again. Both the reconnect hook and the
// janitor funnel through here; the down->syncing CAS makes them race-free.
func (rc *RemoteCluster) resync(sh *rShard, rep *replica, h wire.Hello) {
	if !rep.state.CompareAndSwap(repDown, repSyncing) {
		return
	}
	if rc.cfg.ReadOnly {
		// A sticky reader holds no log to replay — the fleet's writer keeps
		// replicas current — so a recovered replica serves reads again as
		// soon as its connection is back.
		rep.brk.reset()
		rep.state.Store(repHealthy)
		rc.resyncs.Add(1)
		return
	}
	sh.updMu.Lock()
	defer sh.updMu.Unlock()
	rep.applied = h.UpdateSeq
	// Entries below the trim horizon arrive via snapshot reseat, not
	// replay; only the tail counts as replayed.
	before := max(rep.applied, sh.store.Base())
	if err := rc.catchUp(sh, rep); err != nil {
		rep.state.Store(repDown)
		return
	}
	if rep.state.CompareAndSwap(repSyncing, repHealthy) {
		// The breaker's history predates the recovery and would only delay
		// re-admission of a now-current replica.
		rep.brk.reset()
		rc.resyncs.Add(1)
		rc.replayed.Add(sh.store.Head() - before)
	}
}
