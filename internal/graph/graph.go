// Package graph implements the weighted undirected social-graph substrate of
// the SSRQ reproduction: a compact CSR adjacency representation plus the
// shortest-path machinery every SSRQ algorithm builds on — full and
// incremental (pausable) Dijkstra, A* with pluggable heuristics, and
// bidirectional searches.
//
// Vertices are dense int32 IDs in [0, N). Edge weights are positive float64
// "friendship strengths" (smaller = stronger, per the paper §3). A Graph is
// immutable after Build, which keeps query paths allocation-light and makes
// concurrent read-only use safe. Edge churn is layered on top: an Overlay
// accumulates mutations against a base CSR and freezes merged, equally
// immutable Graph values for publication (see overlay.go), so every search
// in this package runs unchanged on both static and churned graphs.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// VertexID identifies a vertex (== a user) in the social graph.
type VertexID = int32

// Infinity is the distance reported for unreachable vertices.
var Infinity = math.Inf(1)

// adjRow is a replacement adjacency list for one vertex, sorted by target.
// Rows are immutable once installed in a patch map; the overlay replaces
// whole rows instead of editing them in place so published graphs stay
// bit-stable.
type adjRow struct {
	targets []VertexID
	weights []float64
}

// Graph is an immutable weighted undirected graph: a CSR base plus an
// optional sparse patch layer of replacement adjacency rows (the frozen form
// of an Overlay delta). patched is nil for pure CSR graphs, so the static
// fast path pays only a nil check.
//
// Row invariant, for CSR rows and patched rows alike: a row is sorted by
// target and holds each neighbour once, parallel edges having been collapsed
// to their minimum weight. EdgeWeight's binary search, the overlay's row
// patches (upsertInRow, removeFromRow) and Compact, which copies rows
// verbatim into a fresh CSR, all rely on it.
type Graph struct {
	offsets []int32 // len n+1; adjacency of v is targets[offsets[v]:offsets[v+1]]
	targets []VertexID
	weights []float64
	numEdge int                 // number of undirected edges
	patched map[VertexID]adjRow // overlay rows overriding the CSR; nil when none
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdge }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v VertexID) int {
	if g.patched != nil {
		if row, ok := g.patched[v]; ok {
			return len(row.targets)
		}
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// AvgDegree returns the average vertex degree.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return 2 * float64(g.numEdge) / float64(g.NumVertices())
}

// Neighbors returns the adjacency of v as parallel target/weight slices. The
// returned slices alias the graph's internal storage and must not be
// modified.
func (g *Graph) Neighbors(v VertexID) ([]VertexID, []float64) {
	if g.patched != nil {
		if row, ok := g.patched[v]; ok {
			return row.targets, row.weights
		}
	}
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// EdgeWeight returns the weight of edge (u,v) and whether it exists.
// Adjacency lists — CSR and patched rows alike — are sorted by target, so
// this is a binary search, never an O(degree) scan (hub vertices make the
// difference on hot paths like landmark repair support checks).
func (g *Graph) EdgeWeight(u, v VertexID) (float64, bool) {
	ts, ws := g.Neighbors(u)
	return searchRow(ts, ws, v)
}

// searchRow binary-searches a sorted adjacency row for target v.
func searchRow(ts []VertexID, ws []float64, v VertexID) (float64, bool) {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= v })
	if i < len(ts) && ts[i] == v {
		return ws[i], true
	}
	return 0, false
}

// ScaleWeights returns a graph with identical topology and every edge weight
// multiplied by factor (> 0). Adjacency storage is shared except weights.
// Used by dataset normalization.
func (g *Graph) ScaleWeights(factor float64) *Graph {
	scaled := &Graph{
		offsets: g.offsets,
		targets: g.targets,
		weights: make([]float64, len(g.weights)),
		numEdge: g.numEdge,
	}
	for i, w := range g.weights {
		scaled.weights[i] = w * factor
	}
	if g.patched != nil {
		scaled.patched = make(map[VertexID]adjRow, len(g.patched))
		for v, row := range g.patched {
			ws := make([]float64, len(row.weights))
			for i, w := range row.weights {
				ws[i] = w * factor
			}
			scaled.patched[v] = adjRow{targets: row.targets, weights: ws}
		}
	}
	return scaled
}

// Builder accumulates undirected edges and produces an immutable Graph.
// Duplicate edges are merged keeping the minimum weight; self-loops and
// non-positive weights are rejected.
type Builder struct {
	n     int
	us    []VertexID
	vs    []VertexID
	ws    []float64
	built bool
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge (u,v) with weight w.
func (b *Builder) AddEdge(u, v VertexID, w float64) error {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if !(w > 0) || math.IsInf(w, 1) || math.IsNaN(w) {
		return fmt.Errorf("graph: edge (%d,%d) weight %v must be positive and finite", u, v, w)
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
	return nil
}

// Build finalizes the graph. The builder must not be reused afterwards.
//
// Rows are laid out by a counting sort on the source vertex: one pass sizes
// every row, one pass scatters both halves of each edge into its row, and
// only the rows themselves (a vertex's degree, not 2m) are comparison-sorted.
func (b *Builder) Build() (*Graph, error) {
	if b.built {
		return nil, fmt.Errorf("graph: Build called twice")
	}
	b.built = true

	offsets := make([]int32, b.n+1)
	for i, u := range b.us {
		offsets[u+1]++
		offsets[b.vs[i]+1]++
	}
	for v := range b.n {
		offsets[v+1] += offsets[v]
	}

	type arc struct {
		to VertexID
		w  float64
	}
	arcs := make([]arc, offsets[b.n])
	fill := slices.Clone(offsets[:b.n])
	for i, u := range b.us {
		v, w := b.vs[i], b.ws[i]
		arcs[fill[u]] = arc{v, w}
		fill[u]++
		arcs[fill[v]] = arc{u, w}
		fill[v]++
	}

	// Sort each row by (target, weight) and keep its first arc per target —
	// the lightest — compacting the rows leftwards in place. Row v is read
	// from its original offsets before offsets[v] is rewritten to its
	// compacted start.
	kept := int32(0)
	for v := range b.n {
		row := arcs[offsets[v]:offsets[v+1]]
		slices.SortFunc(row, func(x, y arc) int {
			if c := cmp.Compare(x.to, y.to); c != 0 {
				return c
			}
			return cmp.Compare(x.w, y.w)
		})
		offsets[v] = kept
		for _, a := range row {
			if kept > offsets[v] && arcs[kept-1].to == a.to {
				continue
			}
			arcs[kept] = a
			kept++
		}
	}
	offsets[b.n] = kept

	g := &Graph{
		offsets: offsets,
		targets: make([]VertexID, kept),
		weights: make([]float64, kept),
		numEdge: int(kept) / 2,
	}
	for i, a := range arcs[:kept] {
		g.targets[i] = a.to
		g.weights[i] = a.w
	}
	return g, nil
}

// MustBuild is Build that panics on error; intended for generators and tests
// that construct edges known to be valid.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
