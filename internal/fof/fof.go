// Package fof implements a friends-of-friends social lower bound: an
// additional cheap admissible bound on graph distance that complements the
// landmark triangle-inequality bound ("Even Partial Knowledge of Friends of
// Friends Speeds Social Search", PAPERS.md — most real top-k members sit
// within 2 hops, exactly where landmark bounds are loosest).
//
// Per query, a pooled Scratch is armed once from the query vertex's rows of
// the snapshot graph: the exact shortest distance over every path of at most
// 2 edges to each reachable vertex (O(deg(q) + Σ deg(neighbor)), budgeted).
// For vertices farther than 2 hops the bound falls back to a weight floor:
// any path of ≥ 3 edges costs at least minw(q) + wmin + minw(u), where
// minw(v) is a floor on v's minimum incident edge weight and wmin a floor on
// the global minimum edge weight.
//
// Churn maintenance is O(1) per edge op and deliberately one-sided: every
// upsert lowers the affected floors (before the epoch publishes), removals
// never raise them. Floors are therefore monotone non-increasing over the
// substrate's lifetime — at most *looser* than the current graph, never
// tighter — so a bound computed from any snapshot plus the current floors is
// admissible for that snapshot, with no per-removal recomputation. The
// 2-hop component is re-derived per query from the snapshot itself and is
// always exact.
package fof

import (
	"math"
	"sync/atomic"

	"ssrq/internal/graph"
)

// Index holds the monotone weight floors. Floors are stored as atomic
// float64 bits: writers lower them under the substrate's writer lock, and
// readers on the query path load them lock-free. Because publishes of
// snapshots happen after the floor writes of the batch that produced them,
// a reader that loaded a snapshot observes floors no higher than that
// snapshot's true minima.
type Index struct {
	minw []atomic.Uint64 // per-vertex floor on the minimum incident edge weight
	wmin atomic.Uint64   // global floor on the minimum edge weight
}

// New scans the construction graph and initializes the floors to its exact
// per-vertex and global minimum incident weights (+Inf for isolated
// vertices / an edgeless graph).
func New(g *graph.Graph) *Index {
	n := g.NumVertices()
	ix := &Index{minw: make([]atomic.Uint64, n)}
	global := math.Inf(1)
	for v := 0; v < n; v++ {
		lo := math.Inf(1)
		_, ws := g.Neighbors(graph.VertexID(v))
		for _, w := range ws {
			if w < lo {
				lo = w
			}
		}
		ix.minw[v].Store(math.Float64bits(lo))
		if lo < global {
			global = lo
		}
	}
	ix.wmin.Store(math.Float64bits(global))
	return ix
}

// ObserveUpsert lowers the floors for an edge (u,v) of weight w. Called
// under the substrate's writer lock before the batch's epoch publishes;
// idempotent, and a no-op when the floors are already at or below w.
func (ix *Index) ObserveUpsert(u, v int32, w float64) {
	lowerFloor(&ix.minw[u], w)
	lowerFloor(&ix.minw[v], w)
	lowerFloor(&ix.wmin, w)
}

func lowerFloor(a *atomic.Uint64, w float64) {
	if math.Float64frombits(a.Load()) > w {
		a.Store(math.Float64bits(w))
	}
}

// MinIncident returns the floor on u's minimum incident edge weight.
func (ix *Index) MinIncident(u int32) float64 {
	return math.Float64frombits(ix.minw[u].Load())
}

// GlobalFloor returns the floor on the global minimum edge weight.
func (ix *Index) GlobalFloor() float64 {
	return math.Float64frombits(ix.wmin.Load())
}

// Scratch is the reusable per-query state: exact ≤2-edge distances from one
// query vertex, lazily stamped so re-arming costs O(work actually done), not
// O(n). Not safe for concurrent use; pool it with the other query scratch.
type Scratch struct {
	best  []float64
	stamp []uint32
	cur   uint32
	q     int32
	// complete reports whether the 2-hop expansion ran to completion; when
	// false best holds exact 1-edge distances only and LowerBound covers
	// ≥2-edge paths with the weight floors.
	complete bool
	minwQ    float64 // floor on q's min incident weight, read at arm time
	wmin     float64 // global floor, read at arm time
	ix       *Index
}

// DefaultBudget caps the 2-hop expansion (total neighbor-row entries
// scanned). Queries from hubs whose 2-hop neighborhood exceeds it keep the
// exact 1-hop component and fall back to floors beyond — still admissible,
// just looser.
const DefaultBudget = 4096

// Arm prepares the scratch for queries from q against snapshot graph g,
// using ix's floors for the beyond-2-hop fallback. budget ≤ 0 selects
// DefaultBudget.
func (sc *Scratch) Arm(ix *Index, g *graph.Graph, q int32, budget int) {
	if budget <= 0 {
		budget = DefaultBudget
	}
	n := g.NumVertices()
	if len(sc.best) < n {
		sc.best = make([]float64, n)
		sc.stamp = make([]uint32, n)
		sc.cur = 0
	}
	sc.cur++
	if sc.cur == 0 { // stamp wraparound: invalidate everything once
		clear(sc.stamp)
		sc.cur = 1
	}
	sc.ix = ix
	sc.q = q
	sc.minwQ = ix.MinIncident(q)
	sc.wmin = ix.GlobalFloor()

	nbrs, ws := g.Neighbors(q)
	work := 0
	for i, x := range nbrs {
		sc.observe(x, ws[i])
		work += g.Degree(x)
	}
	sc.complete = work <= budget
	if !sc.complete {
		return
	}
	for i, x := range nbrs {
		d1 := ws[i]
		nbrs2, ws2 := g.Neighbors(x)
		for j, y := range nbrs2 {
			if y == q {
				continue
			}
			sc.observe(y, d1+ws2[j])
		}
	}
}

func (sc *Scratch) observe(v int32, d float64) {
	if sc.stamp[v] != sc.cur {
		sc.stamp[v] = sc.cur
		sc.best[v] = d
		return
	}
	if d < sc.best[v] {
		sc.best[v] = d
	}
}

// Release ends a query's use of the scratch. It does nothing: the arrays
// are kept for reuse, and the next Arm re-stamps them.
func (sc *Scratch) Release() {}

// LowerBound returns an admissible lower bound on the graph distance from
// the armed query vertex to u in the snapshot the scratch was armed on:
// exact for every path of ≤ 2 edges (≤ 1 edge when the expansion hit its
// budget), a weight-floor bound beyond.
func (sc *Scratch) LowerBound(u int32) float64 {
	if u == sc.q {
		return 0
	}
	d := math.Inf(1)
	if sc.stamp[u] == sc.cur {
		d = sc.best[u]
	}
	var floor float64
	if sc.complete {
		// Unseen paths have ≥ 3 edges: first incident to q, last to u, at
		// least one in between.
		floor = sc.minwQ + sc.wmin + sc.ix.MinIncident(u)
	} else {
		// Unseen paths have ≥ 2 edges: first incident to q, last to u.
		floor = sc.minwQ + sc.ix.MinIncident(u)
	}
	if floor < d {
		d = floor
	}
	return d
}
