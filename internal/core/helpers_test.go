package core

import "ssrq/internal/spatial"

// Single-op forms of ApplyUpdates and Enqueue, the synchronous and the
// asynchronous mutation entry point.

func moveUser(e *Engine, id int32, to spatial.Point) error {
	return e.ApplyUpdates([]Update{{ID: id, To: to}})
}

func removeUserLocation(e *Engine, id int32) error {
	return e.ApplyUpdates([]Update{{ID: id, Remove: true}})
}

func removeFriend(e *Engine, u, v int32) error {
	return e.ApplyUpdates([]Update{{Kind: OpEdgeRemove, U: u, V: v}})
}

func moveUserAsync(e *Engine, id int32, to spatial.Point) error {
	return e.Enqueue(Update{ID: id, To: to})
}

func removeUserLocationAsync(e *Engine, id int32) error {
	return e.Enqueue(Update{ID: id, Remove: true})
}

func addFriendAsync(e *Engine, u, v int32, w float64) error {
	return e.Enqueue(Update{Kind: OpEdgeUpsert, U: u, V: v, W: w})
}

func removeFriendAsync(e *Engine, u, v int32) error {
	return e.Enqueue(Update{Kind: OpEdgeRemove, U: u, V: v})
}
