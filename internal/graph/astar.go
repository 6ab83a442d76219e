package graph

import "ssrq/internal/pqueue"

// Heuristic estimates a lower bound on the remaining distance from a vertex
// to a fixed (implicit) goal. All heuristics used in this repository are
// landmark-derived and therefore consistent, so A* settles exact distances.
type Heuristic func(VertexID) float64

// AStarPool is reusable storage for repeated A* searches over the same
// graph-size domain. GraphDist-style workloads start hundreds of short
// reverse searches per query; epoch-stamped arrays avoid an O(n)
// allocation+clear per search. One search may be active per pool at a time.
type AStarPool struct {
	heap    *pqueue.IndexedHeap
	dist    []float64 // g-values, valid when mark == epoch
	parent  []VertexID
	mark    []uint32
	settled []uint32 // epoch when settled
	epoch   uint32
	cur     AStarSearch // the (single) active search, reused across NewSearch calls
}

// NewAStarPool returns a pool for graphs with n vertices.
func NewAStarPool(n int) *AStarPool {
	return &AStarPool{
		heap:    pqueue.NewIndexedHeap(n),
		dist:    make([]float64, n),
		parent:  make([]VertexID, n),
		mark:    make([]uint32, n),
		settled: make([]uint32, n),
	}
}

// AStarSearch is a pausable A* expansion bound to a pool. Pop and Expand are
// split so callers (Algorithm 3's reverse search) can decide not to expand a
// settled vertex.
type AStarSearch struct {
	g    *Graph
	p    *AStarPool
	h    Heuristic
	pops int
	done bool
}

// NewSearch begins an A* expansion from source with heuristic h,
// invalidating any previous search on this pool. The returned search is the
// pool's single embedded one (at most one search is active per pool), so
// starting a search allocates nothing.
func (p *AStarPool) NewSearch(g *Graph, source VertexID, h Heuristic) *AStarSearch {
	p.epoch++
	if p.epoch == 0 { // uint32 wrap: flush stale marks
		for i := range p.mark {
			p.mark[i], p.settled[i] = 0, 0
		}
		p.epoch = 1
	}
	p.heap.Reset()
	p.cur = AStarSearch{g: g, p: p, h: h}
	p.dist[source] = 0
	p.parent[source] = -1
	p.mark[source] = p.epoch
	p.heap.PushOrDecrease(source, h(source))
	return &p.cur
}

// Pop settles and returns the vertex with the smallest f = g + h key without
// expanding it. dist is the exact g-value. ok is false when the frontier is
// exhausted.
func (s *AStarSearch) Pop() (v VertexID, dist float64, ok bool) {
	if s.done {
		return 0, 0, false
	}
	v, _, ok = s.p.heap.PopMin()
	if !ok {
		s.done = true
		return 0, 0, false
	}
	s.p.settled[v] = s.p.epoch
	s.pops++
	return v, s.p.dist[v], true
}

// Expand relaxes the edges of a vertex previously returned by Pop.
func (s *AStarSearch) Expand(v VertexID) {
	dv := s.p.dist[v]
	nbrs, ws := s.g.Neighbors(v)
	for i, u := range nbrs {
		if s.p.settled[u] == s.p.epoch {
			continue
		}
		nd := dv + ws[i]
		if s.p.mark[u] != s.p.epoch || nd < s.p.dist[u] {
			s.p.dist[u] = nd
			s.p.parent[u] = v
			s.p.mark[u] = s.p.epoch
			s.p.heap.PushOrDecrease(u, nd+s.h(u))
		}
	}
}

// RunToBall drives a search just started by NewSearch toward the settled set
// B ("ball") of a paused Dijkstra expansion from the goal vertex, and answers
// one question: is the source–goal distance below limit, and if so, what is it
// exactly? ball must stay frozen for the duration of the call, the search's
// heuristic must be a consistent lower bound on the distance to ball's source,
// floor must lower-bound that distance for every vertex outside B (the ball's
// head key does; 0 always does), and best must be the length of some real
// source–goal path, or Infinity.
//
// Members of B are never queued: relaxing an edge (x, y) with y ∈ B closes a
// real path of length g(x) + w + dist_B(y), which tightens best. Everywhere
// else the search is A* under π(x) = max(h(x), floor) — consistent on V∖B as
// a max of consistent functions, and across the boundary because floor ≤
// dist(x) ≤ w + dist_B(y) — so popped labels are exact. It ends once the head
// key reaches min(best, limit) or the queue empties, and it drops every push
// whose key already does; bounds only fall, so every undiscovered path runs
// through a queued or dropped vertex whose key is ≥ the final min(best, limit).
// Hence, when answered, the returned dist is exact when dist < limit, and
// otherwise the true distance is ≥ limit. meet is the last vertex outside B
// on the path that realises dist (-1 when dist is still the caller's best):
// its parent chain back to the source is a shortest path.
//
// The search settles at most budget vertices. If the question is still open
// then, answered is false and dist is only what best always is — the length
// of a real path, or Infinity — which the caller may carry into a new search
// against a larger ball. DESIGN.md §4 has the full argument.
func (s *AStarSearch) RunToBall(ball *DijkstraIterator, floor, best, limit float64, budget int) (dist float64, meet VertexID, answered bool) {
	p := s.p
	meet = -1
	bound := min(best, limit)
	if _, hs, _ := p.heap.PeekMin(); max(hs, floor) >= bound {
		return best, meet, true // answered without settling a vertex
	}
	inBall := ball.settledStamp()
	for {
		x, key, ok := p.heap.PeekMin()
		if !ok || key >= bound {
			return best, meet, true
		}
		if budget <= 0 {
			return best, meet, false
		}
		budget--
		p.heap.PopMin()
		p.settled[x] = p.epoch
		s.pops++
		gx := p.dist[x]
		nbrs, ws := s.g.Neighbors(x)
		for i, y := range nbrs {
			nd := gx + ws[i]
			if ball.state[y] == inBall {
				if d := nd + ball.dist[y]; d < best {
					best, meet = d, x
					bound = min(best, limit)
				}
				continue
			}
			// The floor alone often disqualifies y, before any of its labels
			// or its landmark vector is touched.
			if nd+floor >= bound {
				continue
			}
			if p.settled[y] == p.epoch || (p.mark[y] == p.epoch && nd >= p.dist[y]) {
				continue
			}
			k := nd + max(s.h(y), floor)
			if k >= bound {
				continue
			}
			p.dist[y] = nd
			p.parent[y] = x
			p.mark[y] = p.epoch
			p.heap.PushOrDecrease(y, k)
		}
	}
}

// HeadKey returns the smallest f-key currently queued; ok is false when the
// frontier is empty. It lower-bounds the total length of any s-t path not
// yet discovered through this search's frontier.
func (s *AStarSearch) HeadKey() (float64, bool) {
	_, key, ok := s.p.heap.PeekMin()
	return key, ok
}

// Settled reports whether v has been settled by this search.
func (s *AStarSearch) Settled(v VertexID) bool { return s.p.settled[v] == s.p.epoch }

// SettledDist returns the exact distance of a settled vertex.
func (s *AStarSearch) SettledDist(v VertexID) (float64, bool) {
	if !s.Settled(v) {
		return Infinity, false
	}
	return s.p.dist[v], true
}

// Discovered reports whether v has a (possibly tentative) label.
func (s *AStarSearch) Discovered(v VertexID) bool { return s.p.mark[v] == s.p.epoch }

// LabelDist returns the tentative g-value of a discovered vertex.
func (s *AStarSearch) LabelDist(v VertexID) (float64, bool) {
	if !s.Discovered(v) {
		return Infinity, false
	}
	return s.p.dist[v], true
}

// ParentOf returns the search-tree parent of a discovered vertex.
func (s *AStarSearch) ParentOf(v VertexID) VertexID {
	if !s.Discovered(v) {
		return -1
	}
	return s.p.parent[v]
}

// Pops returns how many vertices this search settled (pop-ratio metric).
func (s *AStarSearch) Pops() int { return s.pops }
