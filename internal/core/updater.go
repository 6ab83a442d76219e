package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Updater is an asynchronous update queue over an apply function: a single
// goroutine drains a bounded queue of updates, coalesces redundant ones
// (last write wins per user or unordered pair) and hands them to apply in
// batches of at most maxBatch. Batching is what makes the snapshot design
// cheap under churn — the copy-on-write duplication and the upward summary
// propagation are paid once per batch instead of once per move.
//
// The routed engine runs one, lazily, over its synchronous batch apply; the
// Updater itself knows nothing about indexes, routing or journals. Flush is
// the read-your-writes barrier: it returns once every update enqueued before
// the call has been through apply.
type Updater struct {
	apply    func(accepted, batch []Update)
	ch       chan updateMsg
	done     chan struct{}
	closed   atomic.Bool
	maxBatch int

	pending   atomic.Int64 // enqueued but not yet applied
	applied   atomic.Int64 // ops applied (before coalescing)
	batches   atomic.Int64 // batches handed to apply
	coalesced atomic.Int64 // ops absorbed by a newer op for the same key
}

type updateMsg struct {
	op    Update
	flush chan struct{} // non-nil: barrier marker — apply pending, then close
	quit  bool          // terminate after applying pending
}

// NewUpdater starts the queue's goroutine. apply receives each batch twice:
// accepted holds every dequeued op in queue order, batch the same ops
// coalesced to the newest per key (first-seen order). A caller that journals
// records accepted — one record per op it acknowledged — and applies batch.
// apply runs on the updater's goroutine only, one batch at a time.
func NewUpdater(apply func(accepted, batch []Update), queueCap, maxBatch int) *Updater {
	u := &Updater{
		apply:    apply,
		ch:       make(chan updateMsg, queueCap),
		done:     make(chan struct{}),
		maxBatch: maxBatch,
	}
	go u.loop()
	return u
}

// Enqueue queues one update, blocking for backpressure when the queue is
// full. The op is not validated here. A concurrent Close never strands the
// sender: once the loop exits, the done channel unblocks it with an error.
func (u *Updater) Enqueue(op Update) error {
	if u.closed.Load() {
		return fmt.Errorf("core: updater closed")
	}
	u.pending.Add(1)
	select {
	case u.ch <- updateMsg{op: op}:
		return nil
	case <-u.done:
		u.pending.Add(-1)
		return fmt.Errorf("core: updater closed")
	}
}

// Flush blocks until every previously enqueued update has been applied.
// Returns (without the barrier) if the queue shuts down concurrently — after
// Close there is nothing left to wait for.
func (u *Updater) Flush() {
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

// Close applies whatever is queued, then stops the goroutine. Idempotent.
// An Enqueue racing Close may fail or be dropped; callers that must not drop
// an accepted op serialize their sends against Close themselves.
func (u *Updater) Close() {
	if u.closed.Swap(true) {
		<-u.done
		return
	}
	u.ch <- updateMsg{quit: true}
	<-u.done
}

// Stats reports the queue's counters: PendingUpdates, AppliedUpdates (before
// coalescing), AppliedBatches and CoalescedUpdates. The epoch fields are
// left zero; they belong to whatever apply publishes into.
func (u *Updater) Stats() UpdateStats {
	return UpdateStats{
		PendingUpdates:   u.pending.Load(),
		AppliedUpdates:   u.applied.Load(),
		AppliedBatches:   u.batches.Load(),
		CoalescedUpdates: u.coalesced.Load(),
	}
}

func (u *Updater) loop() {
	defer close(u.done)
	buf := make([]Update, 0, u.maxBatch)
	apply := func() {
		if len(buf) == 0 {
			return
		}
		ops := coalesceUpdates(buf)
		u.apply(buf, ops)
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
	if op.Kind == OpLocation {
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

// UpdateStats reports the state of the epoch/update pipeline, the numbers
// the HTTP /stats endpoint surfaces: the routed engine's (shard.Engine)
// and its Updater's.
type UpdateStats struct {
	// Epoch is the published index version (0 = construction state).
	Epoch uint64
	// SocialEpoch is the published social graph version (0 = construction
	// graph, +1 per batch containing effective edge ops).
	SocialEpoch uint64
	// SnapshotAge is how long ago the current epoch was published.
	SnapshotAge time.Duration
	// PendingUpdates counts async updates enqueued but not yet applied.
	PendingUpdates int64
	// AppliedUpdates counts updates applied: the engine's count is what its
	// indexes applied, an Updater's the ops it dequeued, before coalescing.
	AppliedUpdates int64
	// AppliedBatches counts the batches that applied them: one per write
	// batch on the engine, one per apply call on an Updater.
	AppliedBatches int64
	// CoalescedUpdates counts updates absorbed by a newer update for the
	// same user or pair before reaching the index.
	CoalescedUpdates int64
}
