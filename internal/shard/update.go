package shard

import (
	"errors"

	"ssrq/internal/aggindex"
	"ssrq/internal/core"
)

// The one writer. Every write — synchronous or asynchronous, moves or edges,
// one op or many — is a validated batch placed on one queue, and one
// goroutine (write, started by New) owns the journal and the indexes. It
// takes everything queued, in order, and handles it as one unit: stage the
// unit's records and commit them; then, under the writer lock, route its
// location ops, apply its edges and each shard's share in one
// aggindex.Apply and publish — store the next view, then hand the OnEpoch
// consumer one delta for the whole unit. A batch is never split across
// units.
//
// A synchronous caller waits for its batch's unit to finish; an
// asynchronous one returns once its batch is queued. Flush is an empty
// synchronous batch. So the queue's order is the journal's order and the
// apply order, concurrent writers share one commit (one fsync under
// fsync=batch) and one epoch, and nothing is visible before it is durable.
//
// Edge ops route to no shard: the shared social substrate applies each op
// ONCE, and every shard re-derives the summaries it invalidated in the same
// apply that takes its location ops — O(1) edge work in the shard count. A
// move that crosses a shard boundary becomes a removal on the old owner plus
// an insertion on the new one; the journal holds the one logical op.

// ErrClosed is returned by every write submitted after Close.
var ErrClosed = errors.New("shard: engine closed")

// queueOps bounds the ops waiting on the writer's queue. A sender whose
// batch would take the queue past it blocks until the writer takes the
// queue (backpressure); a larger batch waits for an empty queue and enters
// alone.
const queueOps = 4096

// batch is one validated write on the queue. done is nil for an
// asynchronous batch; a synchronous caller receives its unit's journal
// error on it.
type batch struct {
	ops  []core.Update
	done chan error
}

// ApplyUpdates validates the whole batch and applies it as one published
// view before returning (read-your-writes); every batch queued before it
// applies first. On a validation error nothing is applied. The returned
// error is ErrClosed after Close, or the journal's error when the unit's
// records could not be staged or committed — the batch is then applied but
// not promised durable. ops is not retained.
func (se *Engine) ApplyUpdates(ops []core.Update) error {
	if err := se.validate(ops); err != nil {
		return err
	}
	return se.submit(ops, true)
}

// ApplyUpdatesAsync validates the whole batch and queues it, returning
// without waiting for it to apply; Flush is the barrier. On a validation
// error nothing is queued. The engine owns ops from here: the caller must
// not modify it.
func (se *Engine) ApplyUpdatesAsync(ops []core.Update) error {
	if err := se.validate(ops); err != nil {
		return err
	}
	return se.submit(ops, false)
}

// Flush blocks until every batch queued before the call has been applied,
// published and committed under the log's fsync policy — the
// read-your-writes barrier across the whole engine. After Close it waits
// out the drain.
func (se *Engine) Flush() {
	if se.submit(nil, true) != nil {
		<-se.stopped
	}
}

// Close refuses further writes, lets the writer apply whatever is queued —
// journaled like any batch — and waits for it to exit. Idempotent; queries
// keep working afterwards.
func (se *Engine) Close() {
	se.qmu.Lock()
	se.closed = true
	se.work.Signal()
	se.space.Broadcast()
	se.qmu.Unlock()
	<-se.stopped
}

func (se *Engine) validate(ops []core.Update) error {
	for _, op := range ops {
		if err := se.search.ValidateUpdate(op); err != nil {
			return err
		}
	}
	return nil
}

// submit places one batch on the queue, blocking while it would overflow,
// and for a synchronous batch waits for its unit.
func (se *Engine) submit(ops []core.Update, wait bool) error {
	b := batch{ops: ops}
	if wait {
		b.done = make(chan error, 1)
	}
	se.qmu.Lock()
	for !se.closed && se.queued > 0 && se.queued+len(ops) > se.queueCap {
		se.space.Wait()
	}
	if se.closed {
		se.qmu.Unlock()
		return ErrClosed
	}
	se.queue = append(se.queue, b)
	se.queued += len(ops)
	se.work.Signal()
	se.qmu.Unlock()
	if !wait {
		return nil
	}
	return <-b.done
}

// write is the writer goroutine: it takes the whole queue, applies it as
// one unit and answers the unit's synchronous callers, until Close has
// closed the queue and it is empty.
func (se *Engine) write() {
	defer close(se.stopped)
	var taken []batch
	for {
		se.qmu.Lock()
		for len(se.queue) == 0 && !se.closed {
			se.work.Wait()
		}
		if len(se.queue) == 0 {
			se.qmu.Unlock()
			return
		}
		taken, se.queue = se.queue, taken[:0]
		se.queued = 0
		se.space.Broadcast()
		se.qmu.Unlock()

		ops := taken[0].ops
		if len(taken) > 1 {
			n := 0
			for _, b := range taken {
				n += len(b.ops)
			}
			ops = make([]core.Update, 0, n)
			for _, b := range taken {
				ops = append(ops, b.ops...)
			}
		}
		err := se.apply(ops)
		for i, b := range taken {
			if b.done != nil {
				b.done <- err
			}
			taken[i] = batch{}
		}
	}
}

// apply journals one unit and then routes, applies and publishes it. It
// runs on the writer goroutine only; every op was validated before it was
// queued.
func (se *Engine) apply(ops []core.Update) error {
	if len(ops) == 0 {
		return nil
	}
	err := se.journal(ops)
	se.writeMu.Lock()
	per := make([][]core.Update, len(se.shards))
	for _, op := range ops {
		se.routeInto(per, op)
	}
	se.publish(ops, per)
	se.writeMu.Unlock()
	se.applied.Add(int64(len(ops)))
	se.batches.Add(1)
	return err
}

// routeInto routes one location op into per-shard batches, updating the
// owner map; an edge op routes nowhere. Caller holds writeMu.
func (se *Engine) routeInto(per [][]core.Update, op core.Update) {
	if op.Kind != core.OpLocation {
		return
	}
	old := se.owner[op.ID]
	if op.Remove {
		if old >= 0 {
			per[old] = append(per[old], op)
			se.owner[op.ID] = -1
		}
		return
	}
	dst := se.shardOfPoint(op.To)
	if old >= 0 && old != dst {
		per[old] = append(per[old], core.Update{ID: op.ID, Remove: true})
	}
	per[dst] = append(per[dst], op)
	se.owner[op.ID] = dst
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
