package shard

import (
	"fmt"
	"math/bits"

	"ssrq/internal/core"
	"ssrq/internal/spatial"
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

// enqueueRouted routes one already-validated op onto the owning shard's
// asynchronous pipeline. The closed re-check under the stripe makes async
// routing atomic with respect to Close: Close sets the flag and closes the
// shards while holding every stripe, so a route either completes before
// the barrier (and Close's drain applies it) or observes closed and touches
// nothing — a multi-shard op can never half-land.
func (se *Engine) enqueueRouted(op core.Update) error {
	if op.Kind != core.OpLocation {
		// Concurrent writers of the same edge serialize on the pair's stripe,
		// so shard 0's pipeline — and through it the shared substrate —
		// receives their ops in one order (last write wins deterministically).
		mu := se.lockForEdge(op.U, op.V)
		mu.Lock()
		defer mu.Unlock()
		if se.closed.Load() {
			return fmt.Errorf("shard: engine closed")
		}
		var err error
		if op.Kind == core.OpEdgeRemove {
			err = se.shards[0].RemoveFriendAsync(op.U, op.V)
		} else {
			err = se.shards[0].AddFriendAsync(op.U, op.V, op.W)
		}
		if err == nil {
			// Still under the pair's stripe: the logged order is the
			// pipeline (= application) order for this edge.
			se.logOps([]core.Update{op})
		}
		return err
	}
	mu := se.lockFor(op.ID)
	mu.Lock()
	if se.closed.Load() {
		mu.Unlock()
		return fmt.Errorf("shard: engine closed")
	}
	err := se.routeAsyncLocked(op)
	if err == nil {
		// Log the single logical op under the user's stripe; replay
		// re-derives the cross-shard remove+insert split itself. (The
		// split halves must not be logged: the two shards' pipelines
		// publish independently, so their application order across shards
		// is not the routing order — the stripe-held logical stream is.)
		se.logOps([]core.Update{op})
	}
	mu.Unlock()
	if err == nil {
		se.noteUpdates(1)
	}
	return err
}

// routeAsyncLocked enqueues one location op; caller holds the user's stripe.
func (se *Engine) routeAsyncLocked(op core.Update) error {
	old := se.owner[op.ID].Load()
	if op.Remove {
		if old < 0 {
			return nil // already unlocated: nothing owns the user
		}
		se.owner[op.ID].Store(-1)
		return se.shards[old].RemoveUserLocationAsync(op.ID)
	}
	dst := se.shardOfPoint(op.To)
	if old >= 0 && old != dst {
		if err := se.shards[old].RemoveUserLocationAsync(op.ID); err != nil {
			return err
		}
		se.seam(seamBetweenEnqueues)
	}
	se.owner[op.ID].Store(dst)
	return se.shards[dst].MoveUserAsync(op.ID, op.To)
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
		if op.Kind == core.OpLocation {
			mask |= 1 << uint(stripeOf(op.ID))
		} else {
			mask |= 1 << uint(stripeOfEdge(op.U, op.V))
		}
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
// validation error nothing is applied. Works after Close, like the
// monolithic engine's synchronous path.
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
	// the per-shard pipelines are about to be flushed, so logging here puts
	// the batch at its true position in every touched user's op order.
	se.logOps(ops)
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

// MoveUser relocates a user synchronously (normalized coordinates).
func (se *Engine) MoveUser(id int32, to spatial.Point) error {
	return se.ApplyUpdates([]core.Update{{ID: id, To: to}})
}

// RemoveUserLocation drops a user's location synchronously.
func (se *Engine) RemoveUserLocation(id int32) error {
	return se.ApplyUpdates([]core.Update{{ID: id, Remove: true}})
}

// MoveUserAsync enqueues a relocation on the owning shard's pipeline.
func (se *Engine) MoveUserAsync(id int32, to spatial.Point) error {
	op := core.Update{ID: id, To: to}
	if err := se.validate(op); err != nil {
		return err
	}
	return se.enqueueRouted(op)
}

// RemoveUserLocationAsync enqueues a location removal.
func (se *Engine) RemoveUserLocationAsync(id int32) error {
	op := core.Update{ID: id, Remove: true}
	if err := se.validate(op); err != nil {
		return err
	}
	return se.enqueueRouted(op)
}

// AddFriend inserts (or reweights) a friendship in the shared substrate,
// synchronously — every shard's next snapshot carries the new social epoch.
func (se *Engine) AddFriend(u, v int32, w float64) error {
	return se.ApplyUpdates([]core.Update{{Kind: core.OpEdgeUpsert, U: u, V: v, W: w}})
}

// RemoveFriend deletes a friendship from the shared substrate.
func (se *Engine) RemoveFriend(u, v int32) error {
	return se.ApplyUpdates([]core.Update{{Kind: core.OpEdgeRemove, U: u, V: v}})
}

// AddFriendAsync enqueues a friendship upsert (applied once, via shard 0).
func (se *Engine) AddFriendAsync(u, v int32, w float64) error {
	op := core.Update{Kind: core.OpEdgeUpsert, U: u, V: v, W: w}
	if err := se.validate(op); err != nil {
		return err
	}
	return se.enqueueRouted(op)
}

// RemoveFriendAsync enqueues a friendship removal (applied once, via shard 0).
func (se *Engine) RemoveFriendAsync(u, v int32) error {
	op := core.Update{Kind: core.OpEdgeRemove, U: u, V: v}
	if err := se.validate(op); err != nil {
		return err
	}
	return se.enqueueRouted(op)
}

// Flush blocks until every update enqueued before the call has been applied
// and published by its shard — the read-your-writes barrier across the whole
// partitioned engine.
func (se *Engine) Flush() {
	for _, sh := range se.shards {
		sh.Flush()
	}
}

// Close drains and stops every shard's update pipeline, waits out any
// in-flight rebalance, and stops the shared substrate's background
// maintenance. It holds every routing stripe while setting closed and
// closing the shards, so in-flight async routes finish (and drain) before
// shutdown and later ones are refused whole — see enqueueRouted; a running
// rebalance observes closed at its next drain batch and aborts. Idempotent;
// queries and synchronous mutation keep working afterwards (disabled
// landmarks then stay disabled until an explicit RebuildLandmarks, exactly
// like the monolithic engine).
func (se *Engine) Close() {
	se.lockAllStripes()
	se.closed.Store(true)
	for _, sh := range se.shards {
		sh.Close()
	}
	se.unlockAllStripes()
	se.bg.Wait()
	se.sub.Close()
}
