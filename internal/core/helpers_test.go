package core

import "ssrq/internal/spatial"

// Single-op forms of ApplyUpdates, the engine's one mutation entry point.

func moveUser(e *Engine, id int32, to spatial.Point) error {
	return e.ApplyUpdates([]Update{{ID: id, To: to}})
}

func removeUserLocation(e *Engine, id int32) error {
	return e.ApplyUpdates([]Update{{ID: id, Remove: true}})
}

func removeFriend(e *Engine, u, v int32) error {
	return e.ApplyUpdates([]Update{{Kind: OpEdgeRemove, U: u, V: v}})
}

// asyncEngine is an Engine behind an Updater that applies each coalesced
// batch through ApplyUpdates as one epoch: the asynchronous path without
// the routing layer. Its counters are the Updater's (a.up.Stats()).
type asyncEngine struct {
	*Engine
	up *Updater
}

func newAsync(e *Engine) *asyncEngine {
	apply := func(_, batch []Update) { _ = e.ApplyUpdates(batch) } // Enqueue validated every op
	return &asyncEngine{Engine: e, up: NewUpdater(apply, e.opts.UpdateQueueCap, e.opts.UpdateMaxBatch)}
}

// Enqueue validates op, then queues it.
func (a *asyncEngine) Enqueue(op Update) error {
	if err := a.ValidateUpdate(op); err != nil {
		return err
	}
	return a.up.Enqueue(op)
}

func (a *asyncEngine) Flush() { a.up.Flush() }
func (a *asyncEngine) Close() { a.up.Close() }

// Single-op forms of Enqueue.

func moveUserAsync(e *asyncEngine, id int32, to spatial.Point) error {
	return e.Enqueue(Update{ID: id, To: to})
}

func removeUserLocationAsync(e *asyncEngine, id int32) error {
	return e.Enqueue(Update{ID: id, Remove: true})
}

func addFriendAsync(e *asyncEngine, u, v int32, w float64) error {
	return e.Enqueue(Update{Kind: OpEdgeUpsert, U: u, V: v, W: w})
}

func removeFriendAsync(e *asyncEngine, u, v int32) error {
	return e.Enqueue(Update{Kind: OpEdgeRemove, U: u, V: v})
}
