package shard

import (
	"fmt"

	"ssrq/internal/core"
	"ssrq/internal/oplog"
	"ssrq/internal/spatial"
	"ssrq/internal/wal"
)

// Durability: the one journal point. A record is appended at the ROUTING
// layer, under the op's stripe, where the per-user op order is authoritative
// for any shard count — a cross-shard move is routed as remove@old +
// insert@new onto two independent pipelines that may publish in either
// order, so only the stripe held while both are enqueued defines the user's
// op order. The log therefore carries the single logical op and replay
// re-derives the split. Rebalance migrations are never journaled (they apply
// through the per-shard engines directly): they move shard placement, not
// world state, and replaying their remove halves would delete users.
//
// Appending and committing are separate steps. Routing an asynchronous op
// only buffers its record (sequence assigned, no syscall); the log is
// committed — handed to the OS and, under fsync=batch, fsynced up to the
// newest buffered sequence — by the commit barrier every shard's index and
// the shared substrate run under their writer lock before a batch mutates
// anything. An op's record is buffered before the op is enqueued, so the
// commit preceding its batch covers it: nothing is visible before it is
// durable, and a flushed N-op batch costs O(shards) fsyncs, not N.
// Synchronous batches append and commit under their stripes before they
// apply.

// AttachLog makes l the engine's journal: from here on every routed op is
// appended to it, and it is committed before any batch mutates a shard or the
// substrate. appended, when non-nil, is told how many records each append
// carried (under the appending op's stripes — it must be cheap). Call once,
// before the engine takes traffic.
func (se *Engine) AttachLog(l *wal.Log, appended func(n int)) {
	se.lockAllStripes()
	se.log, se.appended = l, appended
	se.unlockAllStripes()
	for _, sh := range se.shards {
		sh.AggIndex().SetCommitBarrier(se.commitLog)
	}
	se.sub.SetCommitBarrier(se.commitLog)
}

// journal appends ops to the log in routing order; the caller holds their
// stripes. Append failures are counted in the log's stats — the ops have
// already been accepted, and refusing them here would desynchronize the
// layers.
func (se *Engine) journal(ops []core.Update) {
	if se.log == nil {
		return
	}
	if _, _, err := se.log.Stage(oplog.FromOps(ops)); err != nil {
		return
	}
	if se.appended != nil {
		se.appended(len(ops))
	}
}

// commitLog makes every record journaled so far durable under the log's fsync
// policy — the barrier installed on every writer lock, and Flush's last step.
func (se *Engine) commitLog() {
	if se.log == nil {
		return
	}
	if err := se.log.Commit(); err != nil {
		return // counted by the log; surfaces via its Stats
	}
}

// Checkpoint serializes the current published state as a state-diff
// checkpoint at the current log position and prunes the history it
// supersedes. Safe concurrently with traffic; queries are unaffected.
//
// Recovery applies the checkpoint then replays the tail from s+1, so the
// export must reflect every op with seq ≤ s (ops > s leaking in are harmless —
// records are absolute writes and the tail re-asserts them). A sequence is
// assigned under the op's stripe before the op is enqueued (async) or applied
// (sync), so cycling every stripe after reading s leaves each op ≤ s at least
// enqueued on its shard pipelines, Flush drains them through to publication,
// and the export covers them.
//
// Cuts are serialized: the checkpoint's temp file is named after s alone, so
// two cuts at one log position would write and rename one shared path.
func (se *Engine) Checkpoint() error {
	if se.log == nil {
		return fmt.Errorf("shard: engine has no log attached")
	}
	se.ckptMu.Lock()
	defer se.ckptMu.Unlock()
	s := se.log.LastSeq()
	for i := range se.locks {
		se.locks[i].Lock()
		se.locks[i].Unlock() //nolint:staticcheck // empty critical section is the point
	}
	se.Flush()
	return se.log.WriteCheckpoint(s, oplog.FromOps(se.exportDiff()))
}

// exportDiff returns the update batch that carries a freshly built engine
// over the same construction dataset to this engine's current state — the
// checkpoint payload. Location state is read per user from the owning
// shard's published snapshot (the owner map points at the newest residency
// of an in-flight cross-shard move; any user still settling is fixed up by
// the log tail replayed after the checkpoint position).
func (se *Engine) exportDiff() []core.Update {
	grids := make([]*spatial.Snapshot, len(se.shards))
	for i, sh := range se.shards {
		grids[i] = sh.Snapshot().Grid()
	}
	locate := func(id int32) (spatial.Point, bool) {
		s := se.owner[id].Load()
		if s < 0 || !grids[s].Located(id) {
			return spatial.Point{}, false
		}
		return grids[s].Point(id), true
	}
	return core.StateDiff(se.ds, locate, se.sub.Snapshot().Graph())
}
