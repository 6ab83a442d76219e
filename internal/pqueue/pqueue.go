// Package pqueue provides the priority queues used by every search routine
// in the repository: a generic binary min-heap with deterministic tie-breaks,
// a dense indexed heap with decrease-key for Dijkstra-style traversals, and a
// monotone radix heap for full shortest-path sweeps.
//
// The two binary heaps order entries by ascending key and break key ties by
// ascending tie value. Deterministic tie-breaking is load-bearing: the SSRQ
// algorithms are cross-validated against each other, which requires that
// equal-f users are reported in the same order by every algorithm. The radix
// heap has no tie order; it serves only sweeps whose output does not depend
// on one (graph.DistancesFrom).
package pqueue

// Entry is a single element of Heap: a payload with its priority key and a
// deterministic tie-break value.
type Entry[T any] struct {
	Key   float64
	Tie   int64
	Value T
}

// Heap is a binary min-heap over (Key, Tie) pairs. The zero value is ready to
// use. Heap is not safe for concurrent use.
type Heap[T any] struct {
	items []Entry[T]
}

// NewHeap returns a heap with capacity pre-allocated for n entries.
func NewHeap[T any](n int) *Heap[T] {
	return &Heap[T]{items: make([]Entry[T], 0, n)}
}

// Len reports the number of queued entries.
func (h *Heap[T]) Len() int { return len(h.items) }

// Reset discards all entries but keeps the underlying storage.
func (h *Heap[T]) Reset() { h.items = h.items[:0] }

// Push inserts value with the given key and tie-break.
func (h *Heap[T]) Push(key float64, tie int64, value T) {
	h.items = append(h.items, Entry[T]{Key: key, Tie: tie, Value: value})
	h.up(len(h.items) - 1)
}

// Peek returns the minimum entry without removing it. It must not be called
// on an empty heap.
func (h *Heap[T]) Peek() Entry[T] { return h.items[0] }

// Pop removes and returns the minimum entry. ok is false when empty.
func (h *Heap[T]) Pop() (e Entry[T], ok bool) {
	if len(h.items) == 0 {
		return e, false
	}
	e = h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return e, true
}

func (h *Heap[T]) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Tie < b.Tie
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
