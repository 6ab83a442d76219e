// Package ch implements Contraction Hierarchies, the pre-computation-based
// point-to-point shortest-path technique the paper benchmarks against in
// Fig. 8 (the SFA-CH / SPA-CH / TSA-CH variants, following [44]).
//
// Preprocessing contracts vertices in ascending importance (edge difference
// + deleted-neighbors heuristic with lazy priority updates), inserting
// shortcut edges whenever no witness path survives the removal. Social
// networks concentrate adjacency in hubs whose contraction is quadratic in
// degree, so — as production CH implementations do for dense cores — hubs
// whose uncontracted degree exceeds maxContractDegree are left uncontracted
// in a *core*: a top tier of mutually-reachable maximal-rank vertices.
// Queries run an upward bidirectional Dijkstra that may traverse the core
// plateau freely; the standard peak-path argument extends because core
// vertices never need valley replacement.
//
// CH shines on near-planar road networks; on dense small-world social
// graphs the large core and shortcut fill make queries slow — exactly the
// behaviour the paper reports, and the reason the CH variants lose to plain
// incremental Dijkstra in Fig. 8.
package ch

import (
	"sync"

	"ssrq/internal/graph"
	"ssrq/internal/pqueue"
)

type edge struct {
	to graph.VertexID
	w  float64
}

// Preprocessing caps, as common CH implementations set them.
const (
	// witnessSettleLimit caps the vertices a witness search may settle. An
	// inconclusive search adds the shortcut (correct, possibly redundant).
	witnessSettleLimit = 120
	// maxContractDegree keeps vertices whose current uncontracted degree
	// exceeds the cap in the uncontracted core instead of contracting them.
	maxContractDegree = 48
)

// CH is a built hierarchy. It is immutable and safe for concurrent queries.
type CH struct {
	// rank is the contraction order (higher = more important; core vertices
	// share the maximal rank).
	rank      []int32
	upOff     []int32
	upTgt     []graph.VertexID
	upW       []float64
	shortcuts int // shortcut edges preprocessing added
	coreSize  int // vertices left uncontracted (the hub core)
}

// Build contracts g into a hierarchy.
func Build(g *graph.Graph) *CH {
	return build(g, witnessSettleLimit, maxContractDegree)
}

// build is Build with explicit settle and degree caps (both positive).
func build(g *graph.Graph, settleCap, degCap int) *CH {
	return newBuilder(g, settleCap, degCap).run()
}

// newBuilder sets up contraction of g under the given caps.
func newBuilder(g *graph.Graph, settleCap, degCap int) *builder {
	n := g.NumVertices()
	adj := make([][]edge, n)
	for v := 0; v < n; v++ {
		nbrs, ws := g.Neighbors(graph.VertexID(v))
		adj[v] = make([]edge, len(nbrs))
		for i := range nbrs {
			adj[v][i] = edge{nbrs[i], ws[i]}
		}
	}

	b := &builder{
		g:          g,
		adj:        adj,
		contracted: make([]bool, n),
		core:       make([]bool, n),
		deleted:    make([]int32, n),
		rank:       make([]int32, n),
		settleCap:  settleCap,
		degCap:     degCap,
		wDist:      make([]float64, n),
		wMark:      make([]uint32, n),
	}
	b.search = b.witness
	return b
}

// run contracts every vertex and returns the hierarchy.
func (b *builder) run() *CH {
	n := len(b.adj)
	pq := pqueue.NewIndexedHeap(n)
	for v := 0; v < n; v++ {
		pq.PushOrUpdate(graph.VertexID(v), b.quickPriority(graph.VertexID(v)))
	}

	next := int32(0)
	for {
		v, _, ok := pq.PopMin()
		if !ok {
			break
		}
		if b.unDegree(v) > b.degCap {
			b.core[v] = true
			continue
		}
		// Lazy update: re-evaluate; if the node no longer beats the heap
		// head, requeue with the fresh priority.
		sc := b.simulate(v)
		prio := b.priority(v, len(sc))
		if _, headKey, ok := pq.PeekMin(); ok && prio > headKey {
			pq.PushOrUpdate(v, prio)
			continue
		}
		b.contract(v, sc)
		b.rank[v] = next
		next++
	}
	// Core vertices share the maximal rank.
	coreRank := next
	coreSize := 0
	for v := 0; v < n; v++ {
		if b.core[v] {
			b.rank[v] = coreRank
			coreSize++
		}
	}
	return b.finish(coreSize)
}

// builder carries contraction state.
type builder struct {
	g          *graph.Graph
	adj        [][]edge
	contracted []bool
	core       []bool
	deleted    []int32 // contracted-neighbors heuristic term
	rank       []int32
	settleCap  int
	degCap     int
	shortcuts  int

	// Witness-search scratch: epoch-stamped distance labels (wMark[v] is
	// wEpoch<<1 once v is labelled in the current search, wEpoch<<1|1 once
	// it is settled) and the heap. search is the witness search: witness,
	// unless a test swaps in its reference.
	wDist  []float64
	wMark  []uint32
	wEpoch uint32
	wHeap  pqueue.Heap[graph.VertexID]
	search func(src, banned graph.VertexID, limit float64)
}

type shortcut struct {
	u, w graph.VertexID
	dist float64
}

func (b *builder) unDegree(v graph.VertexID) int {
	d := 0
	for _, e := range b.adj[v] {
		if !b.contracted[e.to] {
			d++
		}
	}
	return d
}

// quickPriority is the cheap initial ordering: degree + deleted neighbors.
func (b *builder) quickPriority(v graph.VertexID) float64 {
	return float64(b.unDegree(v)) + float64(b.deleted[v])
}

func (b *builder) priority(v graph.VertexID, needed int) float64 {
	return float64(needed-b.unDegree(v)) + float64(b.deleted[v])
}

// simulate computes the shortcuts contraction of v would need.
func (b *builder) simulate(v graph.VertexID) []shortcut {
	var nbrs []edge
	for _, e := range b.adj[v] {
		if !b.contracted[e.to] {
			nbrs = append(nbrs, e)
		}
	}
	if len(nbrs) < 2 {
		return nil
	}
	var out []shortcut
	for i, ue := range nbrs {
		// Distance cap: the longest via-v path from u to any other neighbor.
		limit := 0.0
		for j, we := range nbrs {
			if j == i {
				continue
			}
			if d := ue.w + we.w; d > limit {
				limit = d
			}
		}
		b.search(ue.to, v, limit)
		for j, we := range nbrs {
			if we.to <= ue.to || j == i {
				continue // each unordered pair once
			}
			via := ue.w + we.w
			if wd, ok := b.witnessDist(we.to); !ok || wd > via {
				out = append(out, shortcut{ue.to, we.to, via})
			}
		}
	}
	return out
}

func (b *builder) witnessDist(v graph.VertexID) (float64, bool) {
	if b.wMark[v] != b.wEpoch<<1|1 {
		return 0, false
	}
	return b.wDist[v], true
}

// nextWitnessEpoch starts a witness search's stamps.
func (b *builder) nextWitnessEpoch() {
	if b.wEpoch++; b.wEpoch == 1<<31 { // wEpoch<<1 would wrap: flush the stamps
		clear(b.wMark)
		b.wEpoch = 1
	}
}

// witness runs a bounded Dijkstra from src among uncontracted vertices,
// skipping banned; labels and settled distances live in the epoch-stamped
// scratch. A vertex is pushed only when its label strictly improves, so the
// heap holds at most one live entry per vertex and an entry is stale once
// its vertex is settled. Vertices settle in the (distance, id) order a heap
// of every relaxation would give, so the searches, and with them the
// hierarchy, do not depend on the pruning.
func (b *builder) witness(src, banned graph.VertexID, limit float64) {
	b.nextWitnessEpoch()
	seen, settled := b.wEpoch<<1, b.wEpoch<<1|1
	b.wHeap.Reset()
	b.wDist[src], b.wMark[src] = 0, seen
	b.wHeap.Push(0, int64(src), src)
	settles := 0
	for b.wHeap.Len() > 0 && settles < b.settleCap {
		e, _ := b.wHeap.Pop()
		v := e.Value
		if b.wMark[v] == settled {
			continue // superseded by a smaller label, settled earlier
		}
		if e.Key > limit {
			break
		}
		b.wMark[v] = settled
		settles++
		for _, ne := range b.adj[v] {
			u := ne.to
			if b.contracted[u] || u == banned || b.wMark[u] == settled {
				continue
			}
			nd := e.Key + ne.w
			if b.wMark[u] == seen && nd >= b.wDist[u] {
				continue
			}
			b.wDist[u], b.wMark[u] = nd, seen
			b.wHeap.Push(nd, int64(u), u)
		}
	}
}

func (b *builder) contract(v graph.VertexID, sc []shortcut) {
	b.contracted[v] = true
	for _, e := range b.adj[v] {
		if !b.contracted[e.to] {
			b.deleted[e.to]++
		}
	}
	for _, s := range sc {
		b.addOrImprove(s.u, s.w, s.dist)
		b.addOrImprove(s.w, s.u, s.dist)
		b.shortcuts++
	}
}

func (b *builder) addOrImprove(u, v graph.VertexID, w float64) {
	for i := range b.adj[u] {
		if b.adj[u][i].to == v {
			if w < b.adj[u][i].w {
				b.adj[u][i].w = w
			}
			return
		}
	}
	b.adj[u] = append(b.adj[u], edge{v, w})
}

// finish converts the contracted adjacency into the upward CSR. An edge
// (v → u) is upward when rank[u] > rank[v], or when both endpoints sit on
// the core plateau (so queries may traverse the core in both directions).
func (b *builder) finish(coreSize int) *CH {
	n := len(b.adj)
	c := &CH{rank: b.rank, shortcuts: b.shortcuts, coreSize: coreSize}
	isUp := func(v int, e edge) bool {
		return b.rank[e.to] > b.rank[v] || (b.core[v] && b.core[e.to])
	}
	c.upOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		for _, e := range b.adj[v] {
			if isUp(v, e) {
				c.upOff[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		c.upOff[v+1] += c.upOff[v]
	}
	total := c.upOff[n]
	c.upTgt = make([]graph.VertexID, total)
	c.upW = make([]float64, total)
	fill := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, e := range b.adj[v] {
			if isUp(v, e) {
				idx := c.upOff[v] + fill[v]
				c.upTgt[idx] = e.to
				c.upW[idx] = e.w
				fill[v]++
			}
		}
	}
	return c
}

// chSearch is one direction of the bidirectional upward query. Labels are
// stamped per search (mark[v] is stamp<<1 once v is labelled, stamp<<1|1
// once it is settled), and a vertex is pushed only when its label strictly
// improves, so an entry is stale once its vertex is settled.
type chSearch struct {
	dist  []float64
	mark  []uint32
	stamp uint32
	heap  pqueue.Heap[graph.VertexID]
}

// chQuery is one Dist call's scratch; queries pools them across calls and
// hierarchies.
type chQuery struct{ fwd, bwd chSearch }

var queries = sync.Pool{New: func() any { return new(chQuery) }}

// reset starts a search from src over n vertices.
func (s *chSearch) reset(src graph.VertexID, n int) {
	if len(s.mark) < n {
		s.dist, s.mark, s.stamp = make([]float64, n), make([]uint32, n), 0
	}
	if s.stamp++; s.stamp == 1<<31 { // stamp<<1 would wrap: flush the marks
		clear(s.mark)
		s.stamp = 1
	}
	s.heap.Reset()
	s.relax(src, 0)
}

// relax labels v with d and queues it, when that improves v's label.
func (s *chSearch) relax(v graph.VertexID, d float64) {
	switch s.mark[v] {
	case s.stamp<<1 | 1:
		return
	case s.stamp << 1:
		if d >= s.dist[v] {
			return
		}
	}
	s.dist[v], s.mark[v] = d, s.stamp<<1
	s.heap.Push(d, int64(v), v)
}

// settledDist returns v's distance once v is settled.
func (s *chSearch) settledDist(v graph.VertexID) (float64, bool) {
	if s.mark[v] != s.stamp<<1|1 {
		return 0, false
	}
	return s.dist[v], true
}

func (s *chSearch) headKey() float64 {
	for s.heap.Len() > 0 {
		e := s.heap.Peek()
		if _, done := s.settledDist(e.Value); done {
			s.heap.Pop() // stale
			continue
		}
		return e.Key
	}
	return graph.Infinity
}

// Dist returns the exact s-t distance (graph.Infinity when unreachable)
// and the number of vertices settled across both upward searches.
//
// Both directions run Dijkstra over the upward (and core-plateau) graph.
// Unlike meet-in-the-middle bidirectional Dijkstra, CH searches *overlap*
// at the path's peak, so the safe stopping rule is per-direction: a
// direction keeps settling until its own head key reaches the best meeting
// μ (then every peak of a shorter path would already be settled by both
// sides). Early termination matters on social networks, where an exhaustive
// upward exploration would wander the whole hub core on every query.
func (c *CH) Dist(s, t graph.VertexID) (float64, int) {
	if s == t {
		return 0, 0
	}
	q := queries.Get().(*chQuery)
	defer queries.Put(q)
	fwd, bwd := &q.fwd, &q.bwd
	fwd.reset(s, len(c.rank))
	bwd.reset(t, len(c.rank))
	best := graph.Infinity
	pops := 0
	for {
		headF, headB := fwd.headKey(), bwd.headKey()
		activeF, activeB := headF < best, headB < best
		if !activeF && !activeB {
			break
		}
		adv, other := fwd, bwd
		if !activeF || (activeB && headB < headF) {
			adv, other = bwd, fwd
		}
		e, _ := adv.heap.Pop() // live: headKey dropped the stale entries
		v := e.Value
		adv.mark[v] = adv.stamp<<1 | 1
		pops++
		if od, ok := other.settledDist(v); ok {
			if d := e.Key + od; d < best {
				best = d
			}
		}
		lo, hi := c.upOff[v], c.upOff[v+1]
		for i := lo; i < hi; i++ {
			u := c.upTgt[i]
			nd := e.Key + c.upW[i]
			adv.relax(u, nd)
			// Relaxation-time meeting check (required for the sum-rule
			// stopping condition to be safe).
			if od, ok := other.settledDist(u); ok {
				if d := nd + od; d < best {
					best = d
				}
			}
		}
	}
	return best, pops
}
