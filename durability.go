package ssrq

// Durability and crash recovery. With Options.Durability set, every world
// mutation — synchronous or asynchronous moves/removals and edge ops, for any
// shard count — is journaled as a canonical oplog.Record at the one place
// where its application order is authoritative: the writer of
// internal/shard, which takes every batch off one queue. A record is
// appended when its batch applies: staged, then committed (flushed, and
// fsynced under fsync=batch), then applied, so nothing is visible before it
// is durable (DESIGN.md §5). Records hold normalized values, so replay bypasses the root API's
// raw→normalized conversion and feeds the internal ApplyUpdates directly —
// the exact path live traffic trusts.
//
// Checkpoints piggyback on the epoch design: published snapshots are
// immutable, so serializing one costs queries nothing. A checkpoint is the
// state DIFF against the construction dataset, expressed as ordinary
// records, applied through the same path on recovery. The cut
// (shard.Engine.Checkpoint) is
//
//	S := log.LastSeq()     // note the position first
//	Flush()                // all ops ≤ S committed and applied
//	diff := exportDiff()   // capture published state (≥ S)
//	WriteCheckpoint(S, diff)
//
// and is correct with traffic still flowing because records are absolute
// writes: state captured past S is re-asserted by the tail replayed after
// S, converging instead of corrupting.

import (
	"fmt"
	"time"

	"ssrq/internal/oplog"
	"ssrq/internal/wal"
)

// DurabilityOptions configures the write-ahead log.
type DurabilityOptions struct {
	// Dir is the WAL directory (segments + checkpoints). Required.
	Dir string
	// Fsync is the commit policy: "batch" (default; group-committed fsync
	// before a mutation returns), "interval" (background fsync every
	// FsyncInterval), or "off" (no fsync; survives process death via the
	// page cache, not power loss).
	Fsync string
	// FsyncInterval is the "interval" policy period (default 50ms).
	FsyncInterval time.Duration
	// CheckpointEveryOps writes a background checkpoint after this many
	// journaled ops (0 = manual Checkpoint calls only).
	CheckpointEveryOps int64
	// SegmentMaxBytes rotates WAL segments past this size (default 8 MiB).
	SegmentMaxBytes int64
	// KeepSegments retains pruned-away segments, keeping the full history
	// replayable from sequence 1 (file-tailing followers, differential
	// tests). Checkpoints still accelerate recovery.
	KeepSegments bool
}

// RecoveryInfo reports what OpenOrRecover replayed.
type RecoveryInfo struct {
	// CheckpointSeq is the log position of the checkpoint the engine
	// restarted from (0 = none found, full replay).
	CheckpointSeq uint64
	// CheckpointOps / ReplayedOps count the state-diff records applied
	// from the checkpoint and the tail records replayed after it.
	CheckpointOps int
	ReplayedOps   int
	// LastSeq is the log position after recovery; new mutations continue
	// at LastSeq+1.
	LastSeq uint64
	// TruncatedBytes is how much torn/corrupt tail the recovery scan cut
	// from the final segment.
	TruncatedBytes int64
	// Elapsed is the wall time spent applying checkpoint + tail.
	Elapsed time.Duration
}

// OpenOrRecover builds an engine over d and brings it to the durable state
// in opts.Durability.Dir (which must be set): newest valid checkpoint, then
// WAL tail replay, through the same update path live traffic uses. A fresh
// directory yields an engine at construction state with an empty log.
// Equivalent to NewEngine with Options.Durability set, plus the recovery
// report.
func OpenOrRecover(d *Dataset, opts *Options) (*Engine, *RecoveryInfo, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Durability == nil || o.Durability.Dir == "" {
		return nil, nil, fmt.Errorf("ssrq: OpenOrRecover requires Options.Durability.Dir")
	}
	e, err := NewEngine(d, &o)
	if err != nil {
		return nil, nil, err
	}
	return e, e.recovered, nil
}

// attachDurability opens (and recovers from) the WAL, replays it into the
// freshly built engine, and attaches the log as the engine's journal. Called
// from NewEngine before the engine is visible to anyone.
func (e *Engine) attachDurability(d DurabilityOptions) error {
	if d.Dir == "" {
		return fmt.Errorf("ssrq: Durability.Dir is required")
	}
	policy, err := wal.ParseFsyncPolicy(d.Fsync)
	if err != nil {
		return err
	}
	log, rec, err := wal.Open(d.Dir, wal.Options{
		Fsync:           policy,
		FsyncInterval:   d.FsyncInterval,
		SegmentMaxBytes: d.SegmentMaxBytes,
		KeepSegments:    d.KeepSegments,
	})
	if err != nil {
		return err
	}
	// Each phase replays as one batch: one epoch, and a landmark table the
	// phase rewrites wholesale is recomputed once at the end of the batch
	// instead of repaired op by op (DESIGN.md §7.3). Memory stays bounded
	// without chunking. A checkpoint is a state diff, at most one record per
	// user plus one per changed edge, and the tail holds about
	// CheckpointEveryOps records when background checkpoints are on; wal.Open
	// has already loaded both.
	start := time.Now()
	if err := e.ApplyWALRecords(rec.CheckpointRecords); err != nil {
		return e.recoverFailed(log, fmt.Errorf("ssrq: apply checkpoint: %w", err))
	}
	if err := e.ApplyWALRecords(rec.TailRecords); err != nil {
		return e.recoverFailed(log, fmt.Errorf("ssrq: replay tail: %w", err))
	}
	e.log = log
	e.ckptEvery = d.CheckpointEveryOps
	e.recovered = &RecoveryInfo{
		CheckpointSeq:  rec.CheckpointSeq,
		CheckpointOps:  len(rec.CheckpointRecords),
		ReplayedOps:    len(rec.TailRecords),
		LastSeq:        rec.LastSeq,
		TruncatedBytes: rec.TruncatedBytes,
		Elapsed:        time.Since(start),
	}
	// Replay is applied; from here on every mutation is journaled first.
	e.eng.AttachLog(log, e.noteJournaled)
	return nil
}

func (e *Engine) recoverFailed(log *wal.Log, err error) error {
	if cerr := log.Close(); cerr != nil {
		return fmt.Errorf("%w (and closing WAL: %v)", err, cerr)
	}
	return err
}

// noteJournaled counts journaled ops towards the next background checkpoint.
// It runs on the engine's writer goroutine, which the cut waits on, so it
// only ever hands the cut to a goroutine.
func (e *Engine) noteJournaled(n int) {
	if e.ckptEvery <= 0 || e.walClosed.Load() {
		return
	}
	if e.opsSince.Add(int64(n)) < e.ckptEvery {
		return
	}
	if !e.ckptBusy.CompareAndSwap(false, true) {
		return // one background checkpoint at a time
	}
	e.opsSince.Store(0)
	e.walWG.Add(1)
	go func() {
		defer e.walWG.Done()
		defer e.ckptBusy.Store(false)
		if e.walClosed.Load() {
			return
		}
		if err := e.Checkpoint(); err != nil {
			return // counted/visible via DurabilityStats (checkpoints stalls)
		}
	}()
}

// Checkpoint serializes the current published state as a state-diff
// checkpoint at the current log position and prunes the WAL history it
// supersedes (unless KeepSegments). Queries are unaffected — the state
// read is an immutable epoch snapshot. Safe concurrently with traffic and
// with other cuts, which serialize; see shard.Engine.Checkpoint for why the
// cut covers every sequence at or below the position it records. An error
// when the engine is not durable.
func (e *Engine) Checkpoint() error {
	if e.log == nil {
		return fmt.Errorf("ssrq: engine has no durability configured")
	}
	return e.eng.Checkpoint()
}

// DurabilityStats is the durable engine's log state (see /stats).
type DurabilityStats struct {
	wal.Stats
	// ReplayedOps / RecoveryMillis echo the last recovery (0 on a fresh
	// directory).
	ReplayedOps    int   `json:"replayed_ops"`
	RecoveryMillis int64 `json:"recovery_millis"`
	// CloseError reports a failure sealing the log at Engine.Close.
	CloseError string `json:"close_error,omitempty"`
}

// DurabilityStats returns the WAL counters, or nil for a non-durable
// engine.
func (e *Engine) DurabilityStats() *DurabilityStats {
	if e.log == nil {
		return nil
	}
	st := &DurabilityStats{Stats: e.log.Stats()}
	if e.recovered != nil {
		st.ReplayedOps = e.recovered.CheckpointOps + e.recovered.ReplayedOps
		st.RecoveryMillis = e.recovered.Elapsed.Milliseconds()
	}
	if p := e.walCloseErr.Load(); p != nil {
		st.CloseError = (*p).Error()
	}
	return st
}

// WALRecords returns up to max journaled records with sequence ≥ from plus
// the newest journaled sequence — the pull surface followers and the
// /wal/stream endpoint serve from. Returns wal.ErrCompacted when from
// predates the retained history (re-bootstrap via WALBootstrap).
func (e *Engine) WALRecords(from uint64, max int) ([]oplog.Record, uint64, error) {
	if e.log == nil {
		return nil, 0, fmt.Errorf("ssrq: engine has no durability configured")
	}
	return e.log.ReadFrom(from, max)
}

// WALBootstrap returns the record sequence a fresh replica applies to reach
// this engine's newest checkpoint state, plus the log position that state
// represents (0 with no checkpoint: replay from sequence 1 instead).
func (e *Engine) WALBootstrap() ([]oplog.Record, uint64, error) {
	if e.log == nil {
		return nil, 0, fmt.Errorf("ssrq: engine has no durability configured")
	}
	return e.log.Bootstrap()
}

// ApplyWALRecords applies already-normalized journal records through the
// internal update path as one batch, in order — how recovery, a follower (or
// a differential-test twin) consumes a WAL. Valid on any engine; a durable
// engine journals the applied records into its own log like any mutation.
func (e *Engine) ApplyWALRecords(recs []oplog.Record) error {
	if len(recs) == 0 {
		return nil
	}
	return e.eng.ApplyUpdates(oplog.Ops(recs))
}

// WALLastSeq returns the newest journaled sequence (0 when non-durable).
func (e *Engine) WALLastSeq() uint64 {
	if e.log == nil {
		return 0
	}
	return e.log.LastSeq()
}

// WALDurableSeq returns the newest sequence durable under the fsync policy
// (0 when non-durable).
func (e *Engine) WALDurableSeq() uint64 {
	if e.log == nil {
		return 0
	}
	return e.log.DurableSeq()
}
