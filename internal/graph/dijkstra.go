package graph

import (
	"sync"

	"ssrq/internal/pqueue"
)

// radixPool holds the sweeps' radix heaps, one per concurrent sweep: a heap
// keeps its buckets' capacity between sweeps, so a sweep allocates little
// beyond the distance table it returns.
var radixPool = sync.Pool{New: func() any { return new(pqueue.Radix) }}

// DistancesFrom returns the shortest-path distance from source to every
// vertex, Infinity for unreachable ones.
//
// It is the full sweep behind landmark tables and diameter estimates, and it
// keeps nothing but distances: no parent or hop arrays, and a monotone radix
// heap with lazy deletion instead of a decrease-key heap. Its output does not
// depend on the order in which equal keys pop (DESIGN.md §4.10): with
// positive weights float addition is monotone and never decreases a key, so
// any label-setting order yields, for every vertex, the minimum over all
// paths of the path's left-to-right float sum.
func (g *Graph) DistancesFrom(source VertexID) []float64 {
	dist, _ := g.sweep(source)
	return dist
}

// sweep is DistancesFrom's kernel. It also returns how many vertices it
// expanded: a vertex is pushed only on a strict improvement and a popped key
// above the vertex's distance is stale, so a correct sweep expands each
// reachable vertex exactly once — the property the differential tests check
// beside the distances.
func (g *Graph) sweep(source VertexID) (dist []float64, expanded int) {
	dist = make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Infinity
	}
	dist[source] = 0
	h := radixPool.Get().(*pqueue.Radix)
	h.Reset()
	defer radixPool.Put(h)
	h.Push(source, 0)
	for {
		v, dv, ok := h.Pop()
		if !ok {
			return dist, expanded
		}
		if dv > dist[v] {
			continue
		}
		expanded++
		nbrs, ws := g.Neighbors(v)
		for i, u := range nbrs {
			if nd := dv + ws[i]; nd < dist[u] {
				dist[u] = nd
				h.Push(u, nd)
			}
		}
	}
}
