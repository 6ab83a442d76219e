package landmark

import (
	"math"

	"ssrq/internal/graph"
	"ssrq/internal/pqueue"
)

// Dynamic maintains landmark distance tables under edge churn. It is the
// single-writer companion of an immutable Set lineage: the first
// EdgeChanged of a batch opens an epoch (a copy-on-write clone of the last
// committed Set), every EdgeChanged repairs the affected tables
// incrementally, and Commit finishes the epoch on the batch's final graph and
// freezes it for publication.
//
// Repair strategy per landmark and edge op, each run to completion:
//
//   - weight decrease / insertion: distances can only shrink. The repair is
//     the standard incremental-SSSP decrease propagation — seed the changed
//     endpoints, settle improvements in Dijkstra order.
//
//   - weight increase / deletion: distances can only grow. Following
//     Ramalingam–Reps, phase 1 identifies the *affected set* — vertices all
//     of whose shortest paths used the changed edge — by walking tight edges
//     in ascending-distance order (a vertex is unaffected iff it keeps a
//     tight neighbor outside the affected set, which is sound because every
//     potential support has a strictly smaller distance and is therefore
//     classified first); phase 2 re-runs Dijkstra restricted to the affected
//     set, seeded from its unaffected boundary.
//
// The invariant bounds rest on: every table of every Set Commit returns holds
// exact shortest-path distances on the graph Commit was given. A batch never
// publishes a partly repaired table. Instead, a landmark whose repairs in
// the open batch have rewritten more than n entries — one table's worth —
// stops repairing for the rest of the batch, and Commit recomputes it with
// one Dijkstra. Each landmark therefore costs a batch at most about two full
// Dijkstras, however many ops the batch holds.
type Dynamic struct {
	cur  *Set // last committed epoch (immutable)
	work *Set // epoch under construction; nil between batches

	epoch      uint64
	pageStamp  []uint64 // epoch that last duplicated each page
	outerStamp uint64   // epoch that last duplicated the outer page slice

	heap *pqueue.IndexedHeap // repair scratch, allocated by the first repair
	// spent[j] counts the entries landmark j's repairs rewrote in the open
	// batch; past n the landmark is stale until Commit recomputes it.
	spent []int
	// mark is increaseRepair's scratch, allocated by the first one (an engine
	// that never sees a removal or a weight increase never needs it): mark[v]
	// is gen<<1 once the current repair has visited v and gen<<1|1 once it
	// has found v affected; any other value is left over from an earlier
	// repair.
	mark     []uint32
	gen      uint32
	affected []graph.VertexID

	// Counters (writer-side; read via Stats under the owner's lock).
	repairs  int64 // incremental repairs run to completion
	repaired int64 // table entries those repairs rewrote
	rebuilds int64 // stale landmarks recomputed by Commit
}

// NewDynamic wraps a freshly built Set for dynamic maintenance.
func NewDynamic(s *Set) *Dynamic {
	return &Dynamic{
		cur:       s,
		pageStamp: make([]uint64, len(s.pages)),
		spent:     make([]int, s.m),
	}
}

// beginBatch opens an epoch, the working Set the batch mutates
// copy-on-write; idempotent within a batch.
func (d *Dynamic) beginBatch() {
	if d.work == nil {
		cp := *d.cur
		d.work = &cp
		d.epoch++
		clear(d.spent)
	}
}

// Commit finishes the open batch on g, the batch's final graph: every
// landmark that went stale is recomputed with one Dijkstra, up to GOMAXPROCS
// of them at once, and then, in landmark order, the vertices whose distance
// to it differs from the last committed table are appended to dirty. It then
// freezes the working epoch as the new current Set and returns both. Without
// an open batch it returns the current Set and dirty unchanged.
func (d *Dynamic) Commit(g *graph.Graph, dirty []graph.VertexID) (*Set, []graph.VertexID) {
	if d.work == nil {
		return d.cur, dirty
	}
	var stale []int
	var sources []graph.VertexID
	for j, spent := range d.spent {
		if spent > d.work.n {
			stale = append(stale, j)
			sources = append(sources, d.work.vertices[j])
		}
	}
	for i, table := range sweeps(g, sources) {
		j := stale[i]
		for v, dist := range table {
			x := graph.VertexID(v)
			if dist != d.cur.vec(x)[j] {
				dirty = append(dirty, x)
			}
			if dist != d.dist(j, x) {
				d.setDist(j, x, dist)
			}
		}
		d.rebuilds++
	}
	d.cur = d.work
	d.work = nil
	return d.cur, dirty
}

// writablePage duplicates page p on its first write of the epoch (and the
// outer slice on the epoch's first write overall) so the committed Set stays
// immutable.
func (d *Dynamic) writablePage(p int) []float64 {
	if d.outerStamp != d.epoch {
		d.work.pages = append([][]float64(nil), d.work.pages...)
		d.outerStamp = d.epoch
	}
	if d.pageStamp[p] != d.epoch {
		d.work.pages[p] = append([]float64(nil), d.work.pages[p]...)
		d.pageStamp[p] = d.epoch
	}
	return d.work.pages[p]
}

// setDist writes one table entry in the working epoch.
func (d *Dynamic) setDist(j int, v graph.VertexID, dist float64) {
	page := d.writablePage(int(v >> pageShift))
	page[int(v&pageMask)*d.work.m+j] = dist
}

// Stats reports the repair counters.
func (d *Dynamic) Stats() (repairs, repaired, rebuilds int64) {
	return d.repairs, d.repaired, d.rebuilds
}

// EdgeChanged repairs every landmark table after one edge mutation on g (the
// post-change graph): an insertion (hadOld false), a deletion (hasNew false)
// or a reweight. It returns the vertices whose distance to some landmark
// changed — the caller recomputes the social summaries of their cells.
// Landmarks gone stale in this batch are skipped; Commit recomputes them.
func (d *Dynamic) EdgeChanged(g *graph.Graph, u, v graph.VertexID, oldW float64, hadOld bool, newW float64, hasNew bool) []graph.VertexID {
	if !hadOld && !hasNew {
		return nil
	}
	d.beginBatch()
	var dirty []graph.VertexID
	for j, spent := range d.spent {
		if spent > d.work.n {
			continue
		}
		switch {
		case !hadOld || (hasNew && newW < oldW):
			dirty = d.decreaseRepair(g, j, u, v, newW, dirty)
		case !hasNew || newW > oldW:
			dirty = d.increaseRepair(g, j, u, v, oldW, dirty)
		default: // newW == oldW: nothing changed
		}
	}
	return dirty
}

// repairHeap returns the repairs' heap, emptied. The first repair allocates
// it: an engine whose graph never changes never needs it.
func (d *Dynamic) repairHeap() *pqueue.IndexedHeap {
	if d.heap == nil {
		d.heap = pqueue.NewIndexedHeap(d.work.n)
	}
	d.heap.Reset()
	return d.heap
}

// dist reads the working table entry for landmark j.
func (d *Dynamic) dist(j int, v graph.VertexID) float64 { return d.work.vec(v)[j] }

// decreaseRepair propagates the improvement introduced by edge (u,v,w) —
// newly inserted or reweighted downwards — through landmark j's table.
func (d *Dynamic) decreaseRepair(g *graph.Graph, j int, u, v graph.VertexID, w float64, dirty []graph.VertexID) []graph.VertexID {
	h := d.repairHeap()
	if nd := d.dist(j, u) + w; nd < d.dist(j, v) {
		h.PushOrDecrease(v, nd)
	}
	if nd := d.dist(j, v) + w; nd < d.dist(j, u) {
		h.PushOrDecrease(u, nd)
	}
	if h.Len() == 0 {
		return dirty
	}
	for {
		x, dx, ok := h.PopMin()
		if !ok {
			break
		}
		if dx >= d.dist(j, x) {
			continue
		}
		if d.spent[j]++; d.spent[j] > d.work.n {
			// Stale: the rest of the batch skips j and Commit recomputes it,
			// so the half-lowered table never publishes.
			return dirty
		}
		d.setDist(j, x, dx)
		d.repaired++
		dirty = append(dirty, x)
		nbrs, ws := g.Neighbors(x)
		for i, y := range nbrs {
			if nd := dx + ws[i]; nd < d.dist(j, y) {
				h.PushOrDecrease(y, nd)
			}
		}
	}
	d.repairs++
	return dirty
}

// increaseRepair handles a deletion or upward reweight of edge (u,v) whose
// old weight was oldW, on the post-change graph g.
func (d *Dynamic) increaseRepair(g *graph.Graph, j int, u, v graph.VertexID, oldW float64, dirty []graph.VertexID) []graph.VertexID {
	du, dv := d.dist(j, u), d.dist(j, v)
	var start graph.VertexID
	switch {
	case !math.IsInf(du, 1) && du+oldW == dv:
		start = v
	case !math.IsInf(dv, 1) && dv+oldW == du:
		start = u
	default:
		// The edge was not tight for landmark j: no shortest path from the
		// landmark used it, so the table is untouched by this op.
		return dirty
	}

	if d.mark == nil {
		d.mark = make([]uint32, d.work.n)
	}
	d.gen++
	if d.gen == 1<<31 { // gen<<1 would wrap: flush the stale stamps
		clear(d.mark)
		d.gen = 1
	}
	visited, affected := d.gen<<1, d.gen<<1|1
	isAffected := func(x graph.VertexID) bool { return d.mark[x] == affected }

	// Phase 1: collect the affected set in ascending-distance order. A
	// candidate keeps its distance iff it still has a tight neighbor outside
	// the affected set; every potential support has strictly smaller
	// distance (edge weights are positive) and is therefore classified
	// before its dependents.
	h := d.repairHeap()
	h.PushOrDecrease(start, d.dist(j, start))
	list := d.affected[:0]
	for {
		z, _, ok := h.PopMin()
		if !ok {
			break
		}
		if d.mark[z]>>1 == d.gen {
			continue
		}
		d.mark[z] = visited
		dz := d.dist(j, z)
		supported := dz == 0 // the landmark itself needs no predecessor
		nbrs, ws := g.Neighbors(z)
		if !supported {
			for i, y := range nbrs {
				if d.dist(j, y)+ws[i] == dz && !isAffected(y) {
					supported = true
					break
				}
			}
		}
		if supported {
			continue
		}
		d.mark[z] = affected
		list = append(list, z)
		for i, t := range nbrs {
			if dz+ws[i] == d.dist(j, t) && d.mark[t]>>1 != d.gen {
				h.PushOrDecrease(t, d.dist(j, t))
			}
		}
	}
	d.affected = list
	if len(list) == 0 {
		return dirty
	}
	if d.spent[j] += len(list); d.spent[j] > d.work.n {
		// Stale: phase 1 only read, and Commit recomputes j.
		return dirty
	}

	// Phase 2: recompute the affected set by Dijkstra seeded from its
	// unaffected boundary. Unreached vertices stay +Inf (the op disconnected
	// them from the landmark).
	h.Reset()
	for _, x := range list {
		d.setDist(j, x, graph.Infinity)
		d.repaired++
		dirty = append(dirty, x)
	}
	for _, x := range list {
		best := graph.Infinity
		nbrs, ws := g.Neighbors(x)
		for i, y := range nbrs {
			if !isAffected(y) {
				if cand := d.dist(j, y) + ws[i]; cand < best {
					best = cand
				}
			}
		}
		if !math.IsInf(best, 1) {
			h.PushOrDecrease(x, best)
		}
	}
	for {
		x, dx, ok := h.PopMin()
		if !ok {
			break
		}
		if dx >= d.dist(j, x) {
			continue
		}
		d.setDist(j, x, dx)
		nbrs, ws := g.Neighbors(x)
		for i, t := range nbrs {
			if isAffected(t) {
				if nd := dx + ws[i]; nd < d.dist(j, t) {
					h.PushOrDecrease(t, nd)
				}
			}
		}
	}
	d.repairs++
	return dirty
}
