package shard

import (
	"fmt"

	"ssrq/internal/core"
	"ssrq/internal/oplog"
	"ssrq/internal/spatial"
	"ssrq/internal/wal"
)

// Durability: the one journal point. A record is appended by the writer
// (update.go), where the op order is authoritative for any shard count: the
// log carries the single logical op of a cross-shard move and replay
// re-derives the remove@old + insert@new split. Rebalance drain batches are
// never journaled (they are published without passing through apply): they
// move shard placement, not world state, and replaying their remove halves
// would delete users.
//
// The writer stages a unit's records (sequence assigned, buffered, no
// syscall), commits them — hands them to the OS and, under fsync=batch,
// fsyncs — and only then routes, applies and publishes the unit. Nothing is
// visible before it is durable, and a unit of N queued ops costs one
// commit, not N.

// AttachLog makes l the engine's journal: from here on every applied batch
// is appended to it and committed before it mutates a shard or the
// substrate. appended, when non-nil, is told how many records each append
// carried (on the writer goroutine — it must be cheap). Call once, before
// the engine takes traffic.
func (se *Engine) AttachLog(l *wal.Log, appended func(n int)) {
	se.qmu.Lock()
	se.log, se.appended = l, appended
	se.qmu.Unlock()
}

// journal stages ops in queue order and commits them, returning the first
// error. Failures are also counted in the log's stats.
func (se *Engine) journal(ops []core.Update) error {
	if se.log == nil {
		return nil
	}
	_, _, err := se.log.Stage(oplog.FromOps(ops))
	if err == nil && se.appended != nil {
		se.appended(len(ops))
	}
	if cerr := se.log.Commit(); err == nil {
		err = cerr
	}
	return err
}

// Checkpoint serializes the current published state as a state-diff
// checkpoint at the current log position and prunes the history it
// supersedes. Safe concurrently with traffic; queries are unaffected.
//
// Recovery applies the checkpoint then replays the tail from s+1, so the
// export must reflect every op with seq ≤ s (ops > s leaking in are harmless —
// records are absolute writes and the tail re-asserts them). The writer
// stages, commits and applies one unit at a time, and a unit that took a
// sequence ≤ s had taken its batches off the queue before s was read, so the
// Flush after reading s returns only once every op ≤ s is durable and
// published, and the export covers them.
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
	se.Flush()
	return se.log.WriteCheckpoint(s, oplog.FromOps(se.exportDiff()))
}

// exportDiff returns the update batch that carries a freshly built engine
// over the same construction dataset to this engine's current state — the
// checkpoint payload: locations and the social graph of one published view,
// where each located user is in exactly one grid.
func (se *Engine) exportDiff() []core.Update {
	sns := *se.view.Load()
	at := func(id int32) (spatial.Point, bool) {
		if s := locate(sns, id); s >= 0 {
			return sns[s].Grid().Point(id), true
		}
		return spatial.Point{}, false
	}
	return core.StateDiff(se.ds, at, sns[0].SocialGraph())
}
