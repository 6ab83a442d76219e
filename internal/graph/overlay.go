package graph

import (
	"fmt"
	"math"
	"sort"
)

// Overlay is the mutable edge layer of the dynamic social graph: a delta of
// replacement adjacency rows over an immutable CSR base. It is the
// single-writer side of the social epoch machinery — mutations edit the
// working row map (always installing freshly-built rows, never editing a row
// slice in place), Freeze publishes the current state as an immutable Graph
// sharing the base arrays and row slices, and Compact periodically folds the
// accumulated delta back into a pure CSR so the patch map stays small and
// reads stay cache-friendly.
//
// Concurrency contract: all Overlay methods are writer-side and must be
// externally serialized (the aggregate index owns the single writer). Graphs
// returned by Freeze are immutable and safe for unlimited concurrent readers
// even while the overlay keeps mutating.
type Overlay struct {
	base    *Graph              // pure CSR (no patch layer)
	rows    map[VertexID]adjRow // working replacement rows, keyed by vertex
	numEdge int

	dirty  bool   // rows changed since the last Freeze
	frozen *Graph // memoized publication; valid when !dirty

	adds, removes, reweights int64 // op counters since construction
	compactions              int64
}

// NewOverlay starts an overlay over base. A patched base (itself produced by
// an earlier Freeze) is compacted into a pure CSR first, so the overlay's
// own delta always starts empty.
func NewOverlay(base *Graph) *Overlay {
	o := &Overlay{
		base:    base,
		rows:    make(map[VertexID]adjRow),
		numEdge: base.NumEdges(),
		frozen:  base,
	}
	if base.patched != nil {
		for v, row := range base.patched {
			o.rows[v] = row
		}
		o.Compact()
	}
	return o
}

// NumVertices returns the vertex count (fixed at construction).
func (o *Overlay) NumVertices() int { return o.base.NumVertices() }

// NumEdges returns the current number of undirected edges.
func (o *Overlay) NumEdges() int { return o.numEdge }

// PatchedCount returns how many vertices currently carry a replacement row —
// the delta size that compaction folds away.
func (o *Overlay) PatchedCount() int { return len(o.rows) }

// Stats returns the op counters (adds, removes, reweights, compactions).
func (o *Overlay) Stats() (adds, removes, reweights, compactions int64) {
	return o.adds, o.removes, o.reweights, o.compactions
}

// Working returns a live merged view over the current writer state. It
// shares the mutable row map, so it must only be read by the (serialized)
// writer between its own mutations — publish with Freeze for readers.
func (o *Overlay) Working() *Graph {
	return &Graph{
		offsets: o.base.offsets,
		targets: o.base.targets,
		weights: o.base.weights,
		numEdge: o.numEdge,
		patched: o.rows,
	}
}

// Freeze publishes the current state as an immutable Graph. The row map is
// copied (O(delta)); row slices and base arrays are shared. Repeated calls
// without intervening mutations return the same Graph.
func (o *Overlay) Freeze() *Graph {
	if !o.dirty {
		return o.frozen
	}
	patched := make(map[VertexID]adjRow, len(o.rows))
	for v, row := range o.rows {
		patched[v] = row
	}
	o.frozen = &Graph{
		offsets: o.base.offsets,
		targets: o.base.targets,
		weights: o.base.weights,
		numEdge: o.numEdge,
		patched: patched,
	}
	o.dirty = false
	return o.frozen
}

// row returns the current adjacency of v (delta row or base CSR slice).
func (o *Overlay) row(v VertexID) ([]VertexID, []float64) {
	if r, ok := o.rows[v]; ok {
		return r.targets, r.weights
	}
	lo, hi := o.base.offsets[v], o.base.offsets[v+1]
	return o.base.targets[lo:hi], o.base.weights[lo:hi]
}

// EdgeWeight returns the weight of edge (u,v) in the working state.
func (o *Overlay) EdgeWeight(u, v VertexID) (float64, bool) {
	ts, ws := o.row(u)
	return searchRow(ts, ws, v)
}

// validate rejects malformed edge endpoints/weights before they can reach
// the working state. withWeight is false for removals (weight unchecked).
func (o *Overlay) validate(u, v VertexID, w float64, withWeight bool) error {
	n := o.NumVertices()
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if withWeight && (!(w > 0) || math.IsInf(w, 1) || math.IsNaN(w)) {
		return fmt.Errorf("graph: edge (%d,%d) weight %v must be positive and finite", u, v, w)
	}
	return nil
}

// SetEdge inserts the undirected edge (u,v) with weight w, or updates its
// weight when it already exists (upsert: the last op per pair decides).
// Reports whether the edge was created.
func (o *Overlay) SetEdge(u, v VertexID, w float64) (created bool, err error) {
	if err := o.validate(u, v, w, true); err != nil {
		return false, err
	}
	_, had := o.EdgeWeight(u, v)
	ut, uw := o.row(u)
	o.rows[u] = upsertInRow(ut, uw, v, w)
	vt, vw := o.row(v)
	o.rows[v] = upsertInRow(vt, vw, u, w)
	if !had {
		o.numEdge++
		o.adds++
	} else {
		o.reweights++
	}
	o.dirty = true
	return !had, nil
}

// RemoveEdge deletes the undirected edge (u,v); reports whether it existed.
func (o *Overlay) RemoveEdge(u, v VertexID) (existed bool, err error) {
	if err := o.validate(u, v, 0, false); err != nil {
		return false, err
	}
	if _, had := o.EdgeWeight(u, v); !had {
		return false, nil
	}
	ut, uw := o.row(u)
	o.rows[u] = removeFromRow(ut, uw, v)
	vt, vw := o.row(v)
	o.rows[v] = removeFromRow(vt, vw, u)
	o.numEdge--
	o.removes++
	o.dirty = true
	return true, nil
}

// upsertInRow builds a fresh sorted row with (v,w) inserted or replaced.
func upsertInRow(ts []VertexID, ws []float64, v VertexID, w float64) adjRow {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= v })
	if i < len(ts) && ts[i] == v {
		nt := append([]VertexID(nil), ts...)
		nw := append([]float64(nil), ws...)
		nw[i] = w
		return adjRow{nt, nw}
	}
	nt := make([]VertexID, len(ts)+1)
	nw := make([]float64, len(ws)+1)
	copy(nt, ts[:i])
	copy(nw, ws[:i])
	nt[i], nw[i] = v, w
	copy(nt[i+1:], ts[i:])
	copy(nw[i+1:], ws[i:])
	return adjRow{nt, nw}
}

// removeFromRow builds a fresh sorted row with v deleted (v must exist).
func removeFromRow(ts []VertexID, ws []float64, v VertexID) adjRow {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= v })
	nt := make([]VertexID, 0, len(ts)-1)
	nw := make([]float64, 0, len(ws)-1)
	nt = append(append(nt, ts[:i]...), ts[i+1:]...)
	nw = append(append(nw, ws[:i]...), ws[i+1:]...)
	return adjRow{nt, nw}
}

// Compact folds the delta back into a pure CSR base and clears the patch
// map. Published graphs keep referencing the old arrays (they are immutable);
// the next Freeze returns the compacted CSR directly. O(n + m).
func (o *Overlay) Compact() {
	n := o.NumVertices()
	g := &Graph{
		offsets: make([]int32, n+1),
		numEdge: o.numEdge,
	}
	total := 0
	for v := 0; v < n; v++ {
		ts, _ := o.row(VertexID(v))
		total += len(ts)
		g.offsets[v+1] = g.offsets[v] + int32(len(ts))
	}
	g.targets = make([]VertexID, total)
	g.weights = make([]float64, total)
	for v := 0; v < n; v++ {
		ts, ws := o.row(VertexID(v))
		copy(g.targets[g.offsets[v]:], ts)
		copy(g.weights[g.offsets[v]:], ws)
	}
	o.base = g
	o.rows = make(map[VertexID]adjRow)
	o.frozen = g
	o.dirty = false
	o.compactions++
}
