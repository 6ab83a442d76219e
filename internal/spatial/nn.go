package spatial

import "ssrq/internal/pqueue"

// NNIterator streams users in ascending Euclidean distance from a query
// point using best-first branch-and-bound over the grid hierarchy: cells are
// queued by MinDist to the query, users by their exact distance. This is the
// incremental NN search SPA and TSA consume (paper §4.1).
//
// The iterator traverses immutable snapshots, so it is inherently
// consistent: location updates published after Reset are invisible to it.
// Over several snapshots of one layout (the shards of a partitioned index)
// it is one search over their forest: every grid's occupied top cells seed
// the one heap, and a user located in two of them is reported twice.
type NNIterator struct {
	snaps    []*Snapshot
	q        Point
	heap     *pqueue.Heap[nnItem]
	childBuf []int32
}

type nnItem struct {
	level int16 // -1 for a user entry
	snap  int16 // which snapshot the cell (or the user's cell) belongs to
	idx   int32 // cell index, or user ID for user entries
}

const userLevel = int16(-1)

// nnTie makes heap order deterministic: equal-key users pop before cells,
// users order by ID, cells by (level, snapshot, index).
func nnTie(level, snap int16, idx int32) int64 {
	if level == userLevel {
		return int64(idx)
	}
	return (int64(level)+1)<<40 | int64(snap)<<32 | int64(idx)
}

// NewNN starts an incremental nearest-neighbor search at q over this
// snapshot.
func (s *Snapshot) NewNN(q Point) *NNIterator {
	it := NewNNIterator()
	it.Reset(q, s)
	return it
}

// NewNNIterator returns an un-armed iterator for pooling; call Reset before
// use.
func NewNNIterator() *NNIterator {
	return &NNIterator{heap: pqueue.NewHeap[nnItem](64)}
}

// Reset re-arms the iterator in place for a fresh search at q over the
// given snapshots, which must share one layout, reusing the heap and
// child-index storage. Query-serving paths pool iterators across queries.
// The snapshot list is copied, not retained.
func (it *NNIterator) Reset(q Point, snaps ...*Snapshot) {
	it.snaps = append(it.snaps[:0], snaps...)
	it.q = q
	it.heap.Reset()
	for si, s := range snaps {
		for idx := int32(0); idx < int32(s.layout.NumCells(0)); idx++ {
			if s.CountAt(0, idx) == 0 {
				continue
			}
			it.heap.Push(s.layout.CellMinDist(0, idx, q), nnTie(0, int16(si), idx), nnItem{0, int16(si), idx})
		}
	}
}

// Next returns the next-closest located user and the exact distance.
// ok is false once all located users have been reported.
func (it *NNIterator) Next() (id int32, dist float64, ok bool) {
	for {
		e, ok := it.heap.Pop()
		if !ok {
			return 0, 0, false
		}
		item := e.Value
		if item.level == userLevel {
			return item.idx, e.Key, true
		}
		s, level := it.snaps[item.snap], int(item.level)
		if level == s.layout.LeafLevel() {
			for _, u := range s.CellUsers(item.idx) {
				d := s.Point(u).Dist(it.q)
				it.heap.Push(d, nnTie(userLevel, item.snap, u), nnItem{userLevel, item.snap, u})
			}
			continue
		}
		it.childBuf = s.layout.ChildIndices(level, item.idx, it.childBuf[:0])
		for _, c := range it.childBuf {
			if s.CountAt(level+1, c) == 0 {
				continue
			}
			it.heap.Push(s.layout.CellMinDist(level+1, c, it.q), nnTie(int16(level+1), item.snap, c), nnItem{int16(level + 1), item.snap, c})
		}
	}
}

// Neighbor is one kNN result.
type Neighbor struct {
	ID   int32
	Dist float64
}

// KNN returns the k nearest located users to q, optionally skipping IDs for
// which skip returns true (e.g. the query user). Fewer than k results are
// returned when the snapshot runs out of users.
func (s *Snapshot) KNN(q Point, k int, skip func(int32) bool) []Neighbor {
	it := s.NewNN(q)
	out := make([]Neighbor, 0, k)
	for len(out) < k {
		id, d, ok := it.Next()
		if !ok {
			break
		}
		if skip != nil && skip(id) {
			continue
		}
		out = append(out, Neighbor{id, d})
	}
	return out
}

// KNN over the grid's writer-side view (single-threaded convenience).
func (g *Grid) KNN(q Point, k int, skip func(int32) bool) []Neighbor {
	return g.view().KNN(q, k, skip)
}
