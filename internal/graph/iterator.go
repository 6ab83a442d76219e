package graph

import "ssrq/internal/pqueue"

// DijkstraIterator is a pausable Dijkstra expansion from a fixed source.
// Each Next call settles and returns the next-closest vertex, which makes the
// iterator the "sorted access" stream over the social domain that SFA, TSA
// and the forward search of AIS's GraphDist submodule rely on (paper §4, §5.2).
//
// The iterator retains its heap and settled state between calls — this *is*
// the paper's forward-heap caching when the iterator is shared across
// multiple target evaluations.
type DijkstraIterator struct {
	g      *Graph
	heap   *pqueue.IndexedHeap
	dist   []float64
	parent []VertexID
	// state[v] is gen<<1 once this run has labelled v (dist and parent are
	// then valid) and gen<<1|1 once it has settled v; any other value is left
	// over from an earlier run, which is what lets Reset skip the arrays.
	state   []uint32
	gen     uint32
	lastKey float64 // distance of the most recently settled vertex (β in §5.3)
	pops    int
	done    bool
}

// NewDijkstraIterator starts an expansion at source. The source itself is the
// first vertex returned by Next (with distance 0).
func NewDijkstraIterator(g *Graph, source VertexID) *DijkstraIterator {
	it := &DijkstraIterator{}
	it.Reset(g, source)
	return it
}

// Reset re-arms the iterator in place for a fresh expansion from source over
// g, reusing the heap and label storage whenever the vertex count allows; it
// then costs O(vertices still queued), not O(n): labels are invalidated by
// moving to a new generation. Query-serving paths pool iterators across
// queries (an iterator's arrays are the dominant per-query allocation
// otherwise); g may differ from the graph of the previous run — each epoch
// publishes a new *Graph over the same vertex universe.
func (it *DijkstraIterator) Reset(g *Graph, source VertexID) {
	n := g.NumVertices()
	if cap(it.dist) < n || it.heap == nil {
		it.heap = pqueue.NewIndexedHeap(n)
		it.dist = make([]float64, n)
		it.parent = make([]VertexID, n)
		it.state = make([]uint32, n)
	} else {
		it.heap.Reset()
		it.dist = it.dist[:n]
		it.parent = it.parent[:n]
		it.state = it.state[:n]
	}
	it.gen++
	if it.gen == 1<<31 { // gen<<1 would wrap: flush the stale stamps
		clear(it.state[:cap(it.state)])
		it.gen = 1
	}
	it.g = g
	it.lastKey = 0
	it.pops = 0
	it.done = false
	it.dist[source] = 0
	it.parent[source] = -1
	it.state[source] = it.gen << 1
	it.heap.PushOrDecrease(source, 0)
}

// Next settles the next-closest unsettled vertex and relaxes its edges.
// ok is false once the connected component of the source is exhausted.
func (it *DijkstraIterator) Next() (v VertexID, dist float64, ok bool) {
	if it.done {
		return 0, 0, false
	}
	v, dist, ok = it.heap.PopMin()
	if !ok {
		it.done = true
		return 0, 0, false
	}
	open, settled := it.gen<<1, it.settledStamp()
	it.state[v] = settled
	it.lastKey = dist
	it.pops++
	nbrs, ws := it.g.Neighbors(v)
	for i, u := range nbrs {
		su := it.state[u]
		if su == settled {
			continue
		}
		if nd := dist + ws[i]; su != open || nd < it.dist[u] {
			it.dist[u] = nd
			it.parent[u] = v
			it.state[u] = open
			it.heap.PushOrDecrease(u, nd)
		}
	}
	return v, dist, true
}

// Settled reports whether v has been settled (popped); once settled,
// SettledDist(v) is the exact shortest-path distance.
func (it *DijkstraIterator) Settled(v VertexID) bool { return it.state[v] == it.settledStamp() }

// settledStamp is the state value of a vertex this run has settled; loops
// that test many vertices hoist it.
func (it *DijkstraIterator) settledStamp() uint32 { return it.gen<<1 | 1 }

// labelled reports whether this run has given v a label (settled or not).
func (it *DijkstraIterator) labelled(v VertexID) bool { return it.state[v]>>1 == it.gen }

// SettledDist returns the exact distance to v if it is settled.
func (it *DijkstraIterator) SettledDist(v VertexID) (float64, bool) {
	if !it.Settled(v) {
		return Infinity, false
	}
	return it.dist[v], true
}

// LastKey returns the distance of the most recently settled vertex. It lower
// bounds the distance of every vertex not yet settled (the β of §5.3); it is
// 0 before the first Next call.
func (it *DijkstraIterator) LastKey() float64 { return it.lastKey }

// HeadKey returns the tentative distance of the next vertex to be settled —
// a (tighter than LastKey) lower bound on every unsettled vertex. ok is
// false when the frontier is exhausted.
func (it *DijkstraIterator) HeadKey() (float64, bool) {
	_, key, ok := it.heap.PeekMin()
	return key, ok
}

// HopsOf returns the number of edges on the shortest path to a settled
// vertex, or -1 if v is not settled. It walks the parent chain: hop counts
// have one cold caller (the Fig. 7a study), so no search maintains them.
func (it *DijkstraIterator) HopsOf(v VertexID) int32 {
	if !it.Settled(v) {
		return -1
	}
	hops := int32(0)
	for x := it.parent[v]; x >= 0; x = it.parent[x] {
		hops++
	}
	return hops
}

// Pops returns the number of vertices settled so far (instrumentation for
// the paper's pop-ratio metric).
func (it *DijkstraIterator) Pops() int { return it.pops }
