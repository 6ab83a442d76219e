package shard

import (
	"fmt"
	"math/bits"

	"ssrq/internal/aggindex"
	"ssrq/internal/core"
)

// Update routing. Location ops go to the shard owning the target region; a
// move that crosses a shard boundary becomes a removal on the old owner plus
// an insertion on the new one. Edge ops route to no shard: the shared social
// substrate applies each op ONCE, and every shard re-derives the summaries it
// invalidated in the same apply that takes its location ops — O(1) edge work
// in the shard count, where the replicated design this replaced broadcast
// every edge op S times.
//
// Every write takes one path, apply: lock the stripes the batch touches (a
// location op's user, an edge op's unordered pair; in index order), stage its
// records and commit them; then, under the one writer lock, route the batch,
// apply its edges and each shard's share in one aggindex.Apply and publish —
// store the next view, then hand the OnEpoch consumer one delta for the whole
// batch. A synchronous ApplyUpdates is one such batch; the engine's single
// async queue (a core.Updater, started by the first Enqueue) hands its
// coalesced batches to the same function.
//
// The stripes order the journal: one user's (or pair's) ops are journaled in
// the order they apply, and a batch's records are committed together, before
// it mutates anything. Batches on disjoint stripes stage
// and commit concurrently, so group commit is unchanged. The writer lock
// adds one thing: a view is stored only between two batches, so every view
// is one instant of the world — each located user in exactly one grid, every
// grid at one social epoch — and a query needs nothing but one load of it.
//
// One writer also makes a batch one epoch per index: the substrate hands its
// social change back to the writer, so an index that takes both a batch's
// edges and its moves re-syncs, moves and publishes once.

// Enqueue validates one update — a move, a location removal or an edge op,
// normalized — and queues it on the engine's update queue, returning
// without waiting for it to apply; Flush is the barrier. The queue starts on
// the first call. Its record is journaled when its batch applies.
//
// No stripe is held here: the queue's apply takes stripes, so a sender
// blocked on a full queue under one would deadlock it. The closed check and
// the send run under upMu's read side instead, and Close write-locks upMu
// before it drains, so an op is either queued before Close (and applied by
// its drain) or refused.
func (se *Engine) Enqueue(op core.Update) error {
	if err := se.search.ValidateUpdate(op); err != nil {
		return err
	}
	se.upMu.RLock()
	defer se.upMu.RUnlock()
	if se.closed.Load() {
		return fmt.Errorf("shard: engine closed")
	}
	se.upOnce.Do(func() {
		se.up.Store(core.NewUpdater(se.apply, se.opts.UpdateQueueCap, se.opts.UpdateMaxBatch))
	})
	return se.up.Load().Enqueue(op)
}

// routeInto routes one already-validated location op into per-shard
// batches, updating the owner map; an edge op routes nowhere. Caller holds
// writeMu and the stripes of every op in the batch.
func (se *Engine) routeInto(per [][]core.Update, op core.Update) {
	if op.Kind != core.OpLocation {
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

// lockAllStripes / unlockAllStripes stop every write — the rebalance drain
// and Close barriers.
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

// ApplyUpdates validates the whole batch and applies it as one published
// view before returning (read-your-writes). Ops queued by Enqueue
// before the call apply first: the queue is flushed before the batch takes
// its stripes — never after, since the queue's apply takes stripes too. On a
// validation error nothing is applied. Works after Close (the log, sealed by
// then, no longer records it).
func (se *Engine) ApplyUpdates(ops []core.Update) error {
	for _, op := range ops {
		if err := se.search.ValidateUpdate(op); err != nil {
			return err
		}
	}
	if u := se.up.Load(); u != nil {
		u.Flush()
	}
	se.apply(ops, ops)
	return nil
}

// apply is the one write path. accepted is every op as its callers had it
// accepted, journaled one record each; batch is what is routed and applied —
// the same ops, or the queue's coalesced form of them (the same end state).
// The records are staged and committed under the stripes before any shard
// mutates, so nothing is visible before it is durable. Every op was
// validated before it got here.
func (se *Engine) apply(accepted, batch []core.Update) {
	mask := se.stripeMaskOf(accepted)
	se.lockStripes(mask)
	defer se.unlockStripes(mask)
	se.journal(accepted)
	se.commitLog()
	se.writeMu.Lock()
	per := make([][]core.Update, len(se.shards))
	for _, op := range batch {
		se.routeInto(per, op)
	}
	se.publish(batch, per)
	se.writeMu.Unlock()
	se.applied.Add(int64(len(batch)))
	se.batches.Add(1)
	se.noteUpdates(len(batch))
}

// publish applies one routed batch — the edge ops in edges once, on the
// substrate, and each shard's share per[s] on its index, in one
// aggindex.Apply that publishes each index at most once — stores the view
// the shards then make together, and only then hands the batch's one delta to
// the OnEpoch consumer, so a consumer that reacts by querying reads the new
// view. Location ops in edges are skipped there; they arrive through per.
// Caller holds writeMu.
func (se *Engine) publish(edges []core.Update, per [][]core.Update) {
	prevSocial := (*se.view.Load())[0].SocialEpoch()
	aggindex.Apply(se.sub, edges, se.shards, per)
	if se.testSeam != nil {
		se.testSeam()
	}
	view := se.snapshots()
	se.view.Store(view)

	for s, ops := range per {
		if len(ops) > 0 {
			se.shardBatches[s].Add(1)
		}
	}
	if se.onEpoch == nil {
		return
	}
	se.moved = se.moved[:0]
	for _, ops := range per {
		for _, op := range ops {
			se.moved = append(se.moved, op.ID)
		}
	}
	sns := *view
	social := sns[0].SocialEpoch() != prevSocial
	if len(se.moved) == 0 && !social {
		return
	}
	se.onEpoch(aggindex.EpochDelta{SocialChanged: social, Moved: se.moved, Snapshot: sns[0]})
}

// snapshots collects every shard's latest published snapshot as a new view.
func (se *Engine) snapshots() *[]*aggindex.Snapshot {
	sns := make([]*aggindex.Snapshot, len(se.shards))
	for s, sh := range se.shards {
		sns[s] = sh.Snapshot()
	}
	return &sns
}

// Flush blocks until every update enqueued before the call has been applied
// and published — the read-your-writes barrier across the
// whole engine — and its record is durable under the log's fsync policy.
func (se *Engine) Flush() {
	if u := se.up.Load(); u != nil {
		u.Flush()
	}
	se.commitLog()
}

// Close refuses further Enqueues, applies whatever the queue holds, stops
// it, and waits out any in-flight rebalance. It takes upMu before the
// stripes: a sender blocked on a full queue holds upMu's read side and
// waits for the queue's apply, which needs stripes. closed is set under
// every stripe so a running rebalance observes it at its next drain batch,
// and an apply never kicks a new one after Close has waited. Idempotent;
// queries and synchronous mutation keep working afterwards.
func (se *Engine) Close() {
	se.upMu.Lock()
	se.lockAllStripes()
	se.closed.Store(true)
	se.unlockAllStripes()
	se.upMu.Unlock()
	if u := se.up.Load(); u != nil {
		u.Close()
	}
	se.bg.Wait()
}
