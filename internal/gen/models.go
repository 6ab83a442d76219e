// Package gen synthesizes the geo-social datasets the paper evaluates on.
// The original Gowalla / Foursquare / Twitter snapshots are not
// redistributable, so the reproduction generates structure-matched
// substitutes (see DESIGN.md §2): social graphs grown by preferential
// attachment over a latent geography (GeoSocial, and the urban and homophily
// workloads), degree-product edge weights exactly as §6 derives them, the
// Forest-Fire *sampling* of [45] used by the Fig. 14b scalability sweep, and
// the correlated-location synthesis of Fig. 14a.
//
// Every generator is deterministic given its seed.
package gen

import (
	"fmt"

	"ssrq/internal/graph"
)

// edge is an undirected edge under construction.
type edge struct {
	u, v int32
}

// edgeAdder deduplicates undirected edges while a generator builds its edge
// list: add records an edge and reports false for a self-loop or a
// duplicate, and edges returns the list in the order add accepted it.
type edgeAdder interface {
	add(u, v int32) bool
	has(u, v int32) bool
	edges() []edge
}

// arrivals deduplicates for the growth models, where vertices arrive in ID
// order and every edge is added as (u, v) while its larger endpoint v
// arrives. A duplicate can then only repeat one of v's own edges, which sit
// at the tail of the list, at most M of them: a short scan replaces the hash
// set (DESIGN.md §2). u == v still needs its own test, because a model that
// draws u from the degree-weighted endpoint list finds v there after v's
// first edge.
type arrivals struct {
	list []edge
}

// newArrivals reserves room for capacity edges (none when capacity < 1, as
// for a configuration the generator is about to refuse).
func newArrivals(capacity int) *arrivals {
	return &arrivals{list: make([]edge, 0, max(capacity, 0))}
}

func (a *arrivals) add(u, v int32) bool {
	if u == v || a.has(u, v) {
		return false
	}
	a.list = append(a.list, edge{u, v})
	return true
}

// has reports whether the arriving vertex v already has the edge (u, v).
func (a *arrivals) has(u, v int32) bool {
	for i := len(a.list) - 1; i >= 0 && a.list[i].v == v; i-- {
		if a.list[i].u == u {
			return true
		}
	}
	return false
}

func (a *arrivals) edges() []edge { return a.list }

// DegreeProductWeights assigns the paper's §6 edge weights:
// w(v_i, v_j) = deg(v_i)·deg(v_j)/maxdeg² — the more friends a user has,
// the looser each connection. Weights are clamped to a small positive floor
// so the graph builder's positivity requirement always holds.
func DegreeProductWeights(n int, edges []edge) []float64 {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	maxDeg := 1
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	const floor = 1e-9
	ws := make([]float64, len(edges))
	denom := float64(maxDeg) * float64(maxDeg)
	for i, e := range edges {
		w := float64(deg[e.u]) * float64(deg[e.v]) / denom
		if w < floor {
			w = floor
		}
		ws[i] = w
	}
	return ws
}

// BuildGraph assembles an immutable graph from generated edges and weights.
func BuildGraph(n int, edges []edge, weights []float64) (*graph.Graph, error) {
	if len(edges) != len(weights) {
		return nil, fmt.Errorf("gen: %d edges but %d weights", len(edges), len(weights))
	}
	b := graph.NewBuilder(n)
	for i, e := range edges {
		if err := b.AddEdge(e.u, e.v, weights[i]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
