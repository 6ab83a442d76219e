package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"ssrq/internal/aggindex"
)

// Updater is the engine's asynchronous update-ingestion pipeline: a single
// goroutine that drains a bounded queue of location updates, coalesces
// redundant moves of the same user (last write wins), and applies them in
// batches of at most Options.UpdateMaxBatch, publishing one index epoch per
// batch. Batching is what makes the snapshot design cheap under churn — the
// copy-on-write duplication and the upward summary propagation are paid once
// per batch instead of once per move.
//
// The updater starts lazily on the first Enqueue and runs until Engine.Close. Flush is the read-your-writes barrier: it
// returns once every update enqueued before the call is applied and
// published.
type Updater struct {
	agg      applier
	ch       chan updateMsg
	done     chan struct{}
	closed   atomic.Bool
	maxBatch int

	pending   atomic.Int64 // enqueued but not yet applied
	applied   atomic.Int64 // ops applied (before coalescing)
	batches   atomic.Int64 // epochs published by the updater
	coalesced atomic.Int64 // ops absorbed by a newer op for the same user
}

// applier is the slice of aggindex.Index the updater needs (test seam).
type applier interface{ Apply(ops []Update) }

type updateMsg struct {
	op    Update
	flush chan struct{} // non-nil: barrier marker — apply pending, then close
	quit  bool          // terminate after applying pending
}

func newUpdater(agg applier, queueCap, maxBatch int) *Updater {
	u := &Updater{
		agg:      agg,
		ch:       make(chan updateMsg, queueCap),
		done:     make(chan struct{}),
		maxBatch: maxBatch,
	}
	go u.loop()
	return u
}

// enqueue queues one update, blocking for backpressure when the queue is
// full. A concurrent close never strands the sender: once the loop exits,
// the done channel unblocks it with an error.
func (u *Updater) enqueue(op Update) error {
	if u.closed.Load() {
		return fmt.Errorf("core: engine closed")
	}
	u.pending.Add(1)
	select {
	case u.ch <- updateMsg{op: op}:
		return nil
	case <-u.done:
		u.pending.Add(-1)
		return fmt.Errorf("core: engine closed")
	}
}

// flush blocks until every previously enqueued update is applied and
// published. Returns (without the barrier) if the pipeline shuts down
// concurrently — after Close there is nothing left to wait for.
func (u *Updater) flush() {
	if u.closed.Load() {
		return
	}
	ack := make(chan struct{})
	select {
	case u.ch <- updateMsg{flush: ack}:
	case <-u.done:
		return
	}
	select {
	case <-ack:
	case <-u.done:
	}
}

// close drains and applies whatever is queued, then stops the goroutine.
func (u *Updater) close() {
	if u.closed.Swap(true) {
		<-u.done
		return
	}
	u.ch <- updateMsg{quit: true}
	<-u.done
}

func (u *Updater) loop() {
	defer close(u.done)
	buf := make([]Update, 0, u.maxBatch)
	apply := func() {
		if len(buf) == 0 {
			return
		}
		ops := coalesceUpdates(buf)
		u.agg.Apply(ops)
		u.applied.Add(int64(len(buf)))
		u.coalesced.Add(int64(len(buf) - len(ops)))
		u.batches.Add(1)
		u.pending.Add(-int64(len(buf)))
		buf = buf[:0]
	}
	drainAfterQuit := func() {
		// Release anything that raced with Close: drop queued ops (counted
		// out of pending) and unblock flushers waiting on their ack.
		for {
			select {
			case m := <-u.ch:
				switch {
				case m.flush != nil:
					close(m.flush)
				case !m.quit:
					u.pending.Add(-1)
				}
			default:
				return
			}
		}
	}
	for {
		msg := <-u.ch
		if msg.quit {
			apply()
			drainAfterQuit()
			return
		}
		if msg.flush != nil {
			apply()
			close(msg.flush)
			continue
		}
		buf = append(buf, msg.op)
		// Drain whatever else is already queued — up to the batch cap — so a
		// burst of moves becomes one epoch instead of many.
		for len(buf) < u.maxBatch {
			select {
			case m := <-u.ch:
				if m.quit {
					apply()
					drainAfterQuit()
					return
				}
				if m.flush != nil {
					apply()
					close(m.flush)
					continue
				}
				buf = append(buf, m.op)
			default:
				goto drained
			}
		}
	drained:
		apply()
	}
}

// coalesceKey identifies the state one op writes: a user's location, or an
// unordered friend pair's edge.
type coalesceKey struct {
	edge bool
	a, b int32
}

func keyOf(op Update) coalesceKey {
	if op.Kind == aggindex.OpLocation {
		return coalesceKey{a: op.ID}
	}
	a, b := op.U, op.V
	if a > b {
		a, b = b, a
	}
	return coalesceKey{edge: true, a: a, b: b}
}

// coalesceUpdates keeps only the newest op per coalescing key (per user for
// location ops, per unordered pair for edge ops), preserving first-seen
// order. Ops with distinct keys commute — locations and edges live in
// disjoint state — and edge ops are upsert/delete style, so last-write-wins
// per key is semantics-preserving.
func coalesceUpdates(buf []Update) []Update {
	seen := make(map[coalesceKey]int, len(buf))
	out := make([]Update, 0, len(buf))
	for _, op := range buf {
		k := keyOf(op)
		if i, ok := seen[k]; ok {
			out[i] = op
			continue
		}
		seen[k] = len(out)
		out = append(out, op)
	}
	return out
}

// ensureUpdater starts the pipeline on first use.
func (e *Engine) ensureUpdater() *Updater {
	e.upOnce.Do(func() {
		e.updater.Store(newUpdater(e.agg, e.opts.UpdateQueueCap, e.opts.UpdateMaxBatch))
	})
	return e.updater.Load()
}

// Enqueue validates one update — a move, a location removal or an edge op,
// normalized — and queues it on the update pipeline, returning immediately
// (blocking only when the queue is full, for backpressure). Locations and
// edges share the one stream and the one Flush barrier; redundant updates of
// the same user or unordered pair coalesce to the newest. The update becomes
// visible when the updater publishes the epoch containing it.
func (e *Engine) Enqueue(op Update) error {
	if err := e.ValidateUpdate(op); err != nil {
		return err
	}
	return e.ensureUpdater().enqueue(op)
}

// Flush blocks until every update enqueued (by any goroutine) before the
// call has been applied and published — the barrier that gives Enqueue
// read-your-writes semantics. A no-op when the pipeline never
// started.
func (e *Engine) Flush() {
	if u := e.updater.Load(); u != nil {
		u.flush()
	}
}

// Close drains and applies any queued updates and stops the update
// pipeline. Idempotent. Updates enqueued concurrently with Close may be
// dropped; queries and synchronous updates remain valid after Close.
func (e *Engine) Close() {
	if u := e.updater.Load(); u != nil {
		u.close()
	}
}

// UpdateStats reports the state of the epoch/update pipeline, the numbers
// the HTTP /stats endpoint and the churn experiment surface.
type UpdateStats struct {
	// Epoch is the published index version (0 = construction state).
	Epoch uint64
	// SocialEpoch is the published social graph version (0 = construction
	// graph, +1 per batch containing effective edge ops).
	SocialEpoch uint64
	// SnapshotAge is how long ago the current epoch was published.
	SnapshotAge time.Duration
	// PendingUpdates counts async updates enqueued but not yet published.
	PendingUpdates int64
	// AppliedUpdates counts updates applied: async ones (pre-coalescing) and
	// those of synchronous ApplyUpdates batches.
	AppliedUpdates int64
	// AppliedBatches counts the batches that published them: the updater's
	// epochs plus one per synchronous ApplyUpdates call.
	AppliedBatches int64
	// CoalescedUpdates counts updates absorbed by a newer update for the
	// same user before reaching the index.
	CoalescedUpdates int64
}

// UpdateStats returns a point-in-time view of the update pipeline.
func (e *Engine) UpdateStats() UpdateStats {
	sn := e.agg.Snapshot()
	st := UpdateStats{
		Epoch:       sn.Epoch(),
		SocialEpoch: sn.SocialEpoch(),
		SnapshotAge: time.Since(sn.PublishedAt()),

		AppliedUpdates: e.syncApplied.Load(),
		AppliedBatches: e.syncBatches.Load(),
	}
	if u := e.updater.Load(); u != nil {
		st.PendingUpdates = u.pending.Load()
		st.AppliedUpdates += u.applied.Load()
		st.AppliedBatches += u.batches.Load()
		st.CoalescedUpdates = u.coalesced.Load()
	}
	return st
}
