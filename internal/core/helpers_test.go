package core

import (
	"errors"
	"sync/atomic"

	"ssrq/internal/spatial"
)

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

// asyncEngine is an Engine whose "async" writers are concurrent
// synchronous ones: each op applies through ApplyUpdates as one epoch
// before the call returns, so Flush has nothing to wait for. Close refuses
// further writes. applied counts the ops it applied.
type asyncEngine struct {
	*Engine
	closed  atomic.Bool
	applied atomic.Int64
}

func newAsync(e *Engine) *asyncEngine { return &asyncEngine{Engine: e} }

// Enqueue applies op, or refuses it after Close.
func (a *asyncEngine) Enqueue(op Update) error {
	if a.closed.Load() {
		return errors.New("core: engine closed")
	}
	if err := a.ApplyUpdates([]Update{op}); err != nil {
		return err
	}
	a.applied.Add(1)
	return nil
}

func (a *asyncEngine) Flush() {}
func (a *asyncEngine) Close() { a.closed.Store(true) }

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
