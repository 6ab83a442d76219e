package shard

import (
	"fmt"
	"math/bits"

	"ssrq/internal/core"
)

// Update routing. Location ops go to the shard owning the target region; a
// move that crosses a shard boundary becomes a removal on the old owner plus
// an insertion on the new one, with the owner map updated under the user's
// routing lock so concurrent movers of the same user cannot interleave into
// a doubly-located state. Edge ops route to shard 0's pipeline only: its
// aggregate index forwards them to the shared social substrate, which
// applies each op ONCE and synchronously syncs every shard's summaries to
// the new social epoch — O(1) in the shard count, where the replicated
// design this replaced broadcast every edge op S times.
//
// Ordering is the invariant everything hangs on: for any one user, the
// per-shard application order must match the routing order, or a
// remove+insert pair from a cross-shard move could invert and leave the user
// located twice (or nowhere) permanently. Two mechanisms provide it:
//
//   - Asynchronous ops enqueue onto the owning shards' FIFO pipelines while
//     holding a routing lock — the user's stripe for location ops, the
//     unordered pair's stripe for edge ops — so the pipeline order per shard
//     is the routing order, and concurrent writers of one edge cannot reach
//     the substrate in different orders (which would diverge last-write-wins
//     outcomes).
//   - Synchronous batches take the routing locks for exactly the stripes the
//     batch touches (in index order — no deadlock against single-stripe
//     async routers or the all-stripe rebalance/Close paths), flush each
//     shard they are about to write (draining async ops routed earlier for
//     those users), and only then apply directly. Holding a user's stripe
//     freezes async routing for that user, so nothing for the batch's users
//     can slip between the flush and the apply; traffic for untouched users
//     proceeds concurrently, which is the point — PR 5's all-stripe
//     acquisition made every sync batch a global writer barrier.
//
// Cross-shard atomicity is deliberately out of scope for a partitioned
// engine: each shard publishes its own epochs, queries are per-shard
// snapshot-consistent, and the merge deduplicates the transient window where
// a mid-relocation user is visible in two shards at once.

// validate rejects a malformed update before any routing decision is made.
// Shard 0 stands in for all shards: every shard shares the same user range,
// landmark count and churn support.
func (se *Engine) validate(op core.Update) error {
	return se.shards[0].ValidateUpdate(op)
}

// Enqueue validates one update — a move, a location removal or an edge op,
// normalized — journals it and queues it on the owning shard's pipeline (an
// edge op on shard 0's, which applies it once to the shared substrate),
// returning without waiting for it to be published; Flush is the barrier.
//
// Journal, then route, both under the op's stripe: the record is buffered
// before any pipeline can see the op, so the commit barrier ahead of the
// batch that applies it covers it (durable.go). The closed re-check under the
// stripe makes async routing atomic with respect to Close: Close sets the
// flag and closes the shards while holding every stripe, so a route either
// completes before the barrier (and Close's drain applies it) or observes
// closed and touches nothing — a multi-shard op can never half-land, and no
// journaled op is dropped.
func (se *Engine) Enqueue(op core.Update) error {
	if err := se.validate(op); err != nil {
		return err
	}
	mu := &se.locks[stripeOfOp(op)]
	mu.Lock()
	defer mu.Unlock()
	if se.closed.Load() {
		return fmt.Errorf("shard: engine closed")
	}
	// The journal carries the single logical op; replay re-derives a
	// cross-shard move's remove+insert split itself. (The split halves must
	// not be logged: the two shards' pipelines publish independently, so
	// their application order across shards is not the routing order — the
	// stripe-held logical stream is.)
	se.journal([]core.Update{op})
	if op.Kind != core.OpLocation {
		return se.shards[0].Enqueue(op)
	}
	if err := se.routeAsyncLocked(op); err != nil {
		return err
	}
	se.noteUpdates(1)
	return nil
}

// routeAsyncLocked enqueues one location op; caller holds the user's stripe.
func (se *Engine) routeAsyncLocked(op core.Update) error {
	old := se.owner[op.ID].Load()
	if op.Remove {
		if old < 0 {
			return nil // already unlocated: nothing owns the user
		}
		se.owner[op.ID].Store(-1)
		return se.shards[old].Enqueue(op)
	}
	dst := se.shardOfPoint(op.To)
	if old >= 0 && old != dst {
		if err := se.shards[old].Enqueue(core.Update{ID: op.ID, Remove: true}); err != nil {
			return err
		}
		se.seam(seamBetweenEnqueues)
	}
	se.owner[op.ID].Store(dst)
	return se.shards[dst].Enqueue(op)
}

// routeInto routes one already-validated op into per-shard batches, updating
// the owner map. Caller holds the routing locks for every op in the batch.
func (se *Engine) routeInto(per [][]core.Update, op core.Update) {
	if op.Kind != core.OpLocation {
		per[0] = append(per[0], op) // shard 0 forwards to the shared substrate
		return
	}
	old := se.owner[op.ID].Load()
	if op.Remove {
		if old >= 0 {
			per[old] = append(per[old], op)
			se.owner[op.ID].Store(-1)
		}
		return
	}
	dst := se.shardOfPoint(op.To)
	if old >= 0 && old != dst {
		per[old] = append(per[old], core.Update{ID: op.ID, Remove: true})
	}
	per[dst] = append(per[dst], op)
	se.owner[op.ID].Store(dst)
}

// stripeMaskOf returns the set of routing stripes a batch touches, as a bit
// per stripe (the stripe count is pinned to 64 by the mask type).
func (se *Engine) stripeMaskOf(ops []core.Update) uint64 {
	var mask uint64
	for _, op := range ops {
		mask |= 1 << uint(stripeOfOp(op))
	}
	return mask
}

// lockStripes / unlockStripes acquire exactly the masked stripes, in index
// order (and release in reverse), so partial acquisitions compose with the
// all-stripe holders (rebalance, Close) without deadlock.
func (se *Engine) lockStripes(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		se.locks[bits.TrailingZeros64(m)].Lock()
	}
}

func (se *Engine) unlockStripes(mask uint64) {
	for m := mask; m != 0; {
		i := 63 - bits.LeadingZeros64(m)
		se.locks[i].Unlock()
		m &^= 1 << uint(i)
	}
}

// lockAllStripes / unlockAllStripes freeze asynchronous routing entirely —
// the rebalance drain and Close barriers.
func (se *Engine) lockAllStripes() {
	for i := range se.locks {
		se.locks[i].Lock()
	}
}

func (se *Engine) unlockAllStripes() {
	for i := len(se.locks) - 1; i >= 0; i-- {
		se.locks[i].Unlock()
	}
}

// ApplyUpdates validates the whole batch, routes every op, and applies each
// shard's share as one published epoch per shard before returning
// (read-your-writes). Only the routing stripes the batch actually touches
// are held — concurrent async traffic for other users keeps flowing. On a
// validation error nothing is applied. Works after Close (the log, sealed by
// then, no longer records it).
func (se *Engine) ApplyUpdates(ops []core.Update) error {
	for _, op := range ops {
		if err := se.validate(op); err != nil {
			return err
		}
	}
	mask := se.stripeMaskOf(ops)
	se.lockStripes(mask)
	defer se.unlockStripes(mask)
	// Under the batch's stripes async routing for these users is frozen and
	// the per-shard pipelines are about to be flushed, so journaling here puts
	// the batch at its true position in every touched user's op order — and
	// it is durable before anything below applies.
	se.journal(ops)
	se.commitLog()
	per := make([][]core.Update, len(se.shards))
	for _, op := range ops {
		se.routeInto(per, op)
	}
	for s, batch := range per {
		if len(batch) == 0 {
			continue
		}
		// Drain async ops routed before this batch so the shard applies this
		// batch's users in routing order; their stripes are held, so nothing
		// new for them arrives between the flush and the apply.
		se.shards[s].Flush()
		if err := se.shards[s].ApplyUpdates(batch); err != nil {
			return err
		}
	}
	se.noteUpdates(len(ops))
	return nil
}

// Flush blocks until every update enqueued before the call has been applied
// and published by its shard — the read-your-writes barrier across the whole
// engine — and its record is durable under the log's fsync policy (the
// trailing commit covers records whose op needed no shard, e.g. the removal
// of an already unlocated user).
func (se *Engine) Flush() {
	for _, sh := range se.shards {
		sh.Flush()
	}
	se.commitLog()
}

// Close drains and stops every shard's update pipeline and waits out any
// in-flight rebalance. It holds every routing stripe while setting closed
// and closing the shards, so in-flight async routes finish (and drain)
// before shutdown and later ones are refused whole — see Enqueue; a running
// rebalance observes closed at its next drain batch and aborts. Idempotent;
// queries and synchronous mutation keep working afterwards.
func (se *Engine) Close() {
	se.lockAllStripes()
	se.closed.Store(true)
	for _, sh := range se.shards {
		sh.Close()
	}
	se.unlockAllStripes()
	se.bg.Wait()
}
