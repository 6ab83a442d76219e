package pqueue

// IndexedHeap is a dense binary min-heap keyed by float64 priorities over
// integer item IDs in [0, n). It supports DecreaseKey in O(log n) via a
// position table, which makes it the right queue for Dijkstra and A* over
// graphs with contiguous vertex IDs.
//
// Keys live in the heap slots, next to the ids they order, so a sift compares
// neighbouring memory instead of chasing a per-id key array; only the
// position table is indexed by id. Ties are broken by ascending item ID, so
// (key, id) is a total order and the pop sequence is a function of the
// operations alone, not of the heap's internal shape.
// The zero value is not usable; construct with NewIndexedHeap.
type IndexedHeap struct {
	slots []slot
	pos   []int32 // heap slot per item id; -1 when absent
}

type slot struct {
	key float64
	id  int32
}

func (a slot) less(b slot) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

// NewIndexedHeap returns an indexed heap for item IDs in [0, n).
func NewIndexedHeap(n int) *IndexedHeap {
	h := &IndexedHeap{
		slots: make([]slot, 0, 64),
		pos:   make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of queued items.
func (h *IndexedHeap) Len() int { return len(h.slots) }

// Reset empties the heap, keeping capacity. It runs in O(queued items).
func (h *IndexedHeap) Reset() {
	for _, s := range h.slots {
		h.pos[s.id] = -1
	}
	h.slots = h.slots[:0]
}

// PushOrDecrease inserts the item with the given key, or lowers its key if it
// is already queued with a larger one. It reports whether the heap changed.
func (h *IndexedHeap) PushOrDecrease(id int32, key float64) bool {
	if p := h.pos[id]; p >= 0 {
		if key >= h.slots[p].key {
			return false
		}
		h.up(int(p), slot{key, id})
		return true
	}
	h.slots = append(h.slots, slot{})
	h.up(len(h.slots)-1, slot{key, id})
	return true
}

// PopMin removes and returns the item with the smallest key. ok is false when
// the heap is empty.
func (h *IndexedHeap) PopMin() (id int32, key float64, ok bool) {
	if len(h.slots) == 0 {
		return 0, 0, false
	}
	top := h.slots[0]
	last := len(h.slots) - 1
	moved := h.slots[last]
	h.slots = h.slots[:last]
	h.pos[top.id] = -1
	if last > 0 {
		h.down(0, moved)
	}
	return top.id, top.key, true
}

// PeekMin returns the smallest-key item without removing it.
func (h *IndexedHeap) PeekMin() (id int32, key float64, ok bool) {
	if len(h.slots) == 0 {
		return 0, 0, false
	}
	return h.slots[0].id, h.slots[0].key, true
}

// up places s at or above the hole at slot i: parents that order after s
// slide down into the hole, then s is written once.
func (h *IndexedHeap) up(i int, s slot) {
	for i > 0 {
		parent := (i - 1) / 2
		p := h.slots[parent]
		if !s.less(p) {
			break
		}
		h.slots[i] = p
		h.pos[p.id] = int32(i)
		i = parent
	}
	h.slots[i] = s
	h.pos[s.id] = int32(i)
}

// down places s at or below the hole at slot i: the smaller child slides up
// into the hole while it orders before s, then s is written once.
func (h *IndexedHeap) down(i int, s slot) {
	n := len(h.slots)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		c := h.slots[child]
		if right := child + 1; right < n {
			if r := h.slots[right]; r.less(c) {
				child, c = right, r
			}
		}
		if !c.less(s) {
			break
		}
		h.slots[i] = c
		h.pos[c.id] = int32(i)
		i = child
	}
	h.slots[i] = s
	h.pos[s.id] = int32(i)
}
