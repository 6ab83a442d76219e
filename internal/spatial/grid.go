package spatial

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Grid is a dynamic multi-level regular grid over user locations. Leaf cells
// hold user IDs; every level keeps per-cell occupancy counts so searches can
// skip empty subtrees. Users without a known location (the paper treats them
// as infinitely far away) are simply absent from the grid.
//
// Concurrency follows an epoch/snapshot model rather than locking. Publish
// returns the grid's complete query-visible state as an immutable *Snapshot,
// which the aggregate index publishes beside its summaries: readers traverse
// that epoch freely — no lock, no blocking, one consistent view for the
// whole logical operation. Mutations (Move/SetLocated/RemoveLocation) build
// the next epoch copy-on-write: only the touched point pages, located-bit
// pages, leaf buckets, bucket pages and count pages are duplicated,
// everything else is shared with the published snapshot. Nothing a reader
// can observe changes until Publish installs the new epoch.
//
// The mutating methods and Publish are writer-side and must be serialized
// externally (the aggregate index and the engine's update pipeline own a
// single writer); they never block readers. Single-threaded use needs no
// synchronization at all: the read accessors on Grid observe the working
// state directly, so mutate-then-read works without an intervening Publish.
type Grid struct {
	layout    *Layout
	published atomic.Pointer[Snapshot]

	// Writer state: the epoch under construction and the published epoch it
	// derives from. work is nil when no unpublished mutation exists. A page or
	// bucket of work is safe to mutate in place iff base does not share it.
	work, base *Snapshot
}

// NewGrid indexes the users whose located flag is set. The grid reads its
// points from pts without copying them: each full 16-point page of the grid
// is that chunk of pts (only a short tail page is copied), so grids built
// over one slice share it. The caller must not mutate pts afterwards. The
// grid never writes it: a move copies the page first, so mutations do not
// write through to the caller's slice (callers read current positions from a
// Snapshot or the grid's accessors). located is not retained.
func NewGrid(layout *Layout, pts []Point, located []bool) (*Grid, error) {
	if len(pts) != len(located) {
		return nil, fmt.Errorf("spatial: %d points but %d located flags", len(pts), len(located))
	}
	n := len(pts)
	w := &Snapshot{
		layout: layout,
		n:      n,
		pts:    make([]*ptPage, (n+ptPageSize-1)/ptPageSize),
		loc:    newPages(n, locPageSize, emptyLocated),
		leaves: newPages(layout.NumCells(layout.LeafLevel()), cellPageSize, emptyBuckets),
	}
	for pg := range w.pts {
		lo := pg << ptPageShift
		if lo+ptPageSize <= n {
			w.pts[pg] = (*ptPage)(pts[lo : lo+ptPageSize])
			continue
		}
		tail := new(ptPage)
		copy(tail[:], pts[lo:])
		w.pts[pg] = tail
	}
	for l := 0; l < layout.LeafLevel(); l++ {
		w.counts = append(w.counts, newPages(layout.NumCells(l), cellPageSize, emptyCounts))
	}
	// Nothing is published yet: against an empty base only the empty pages
	// are shared, so each page is copied on its first write and mutated in
	// place after that; cells no located user reaches keep the empty pages.
	// Construction writes no point, so the aliased point pages stay the
	// caller's until Publish makes them the base every write copies from.
	g := &Grid{layout: layout, work: w, base: &Snapshot{counts: make([][]*cellPage[int32], len(w.counts))}}
	for id := range located {
		if located[id] {
			g.insert(int32(id))
		}
	}
	g.Publish()
	return g, nil
}

// Publish atomically installs the working epoch as the new published
// snapshot and returns it. A no-op (returning the current snapshot) when
// nothing changed since the last publish. Writer-side.
func (g *Grid) Publish() *Snapshot {
	if g.work == nil {
		return g.published.Load()
	}
	s := g.work
	g.work = nil
	g.published.Store(s)
	return s
}

// view returns the state mutators and writer-side readers operate on: the
// working epoch when one exists, otherwise the published snapshot.
func (g *Grid) view() *Snapshot {
	if g.work != nil {
		return g.work
	}
	return g.published.Load()
}

// ensureWork opens the next working epoch if none exists. Only the spines of
// page pointers are duplicated; pages and buckets copy on first touch.
func (g *Grid) ensureWork() *Snapshot {
	if g.work == nil {
		pub := g.published.Load()
		w := *pub
		w.pts = slices.Clone(pub.pts)
		w.loc = slices.Clone(pub.loc)
		w.leaves = slices.Clone(pub.leaves)
		w.counts = make([][]*cellPage[int32], len(pub.counts))
		for l, c := range pub.counts {
			w.counts[l] = slices.Clone(c)
		}
		g.work, g.base = &w, pub
	}
	return g.work
}

// setPoint writes id's coordinates in the working epoch.
func (g *Grid) setPoint(w *Snapshot, id int32, p Point) {
	writablePage(w.pts, g.base.pts, nil, id>>ptPageShift)[id&ptPageMask] = p
}

// setLocated writes id's located bit in the working epoch.
func (g *Grid) setLocated(w *Snapshot, id int32, on bool) {
	word := &writablePage(w.loc, g.base.loc, emptyLocated, id>>locPageShift)[(id&locPageMask)>>6]
	if on {
		*word |= 1 << (id & 63)
	} else {
		*word &^= 1 << (id & 63)
	}
}

// writableBucket returns a leaf's bucket slot in the working epoch with the
// bucket itself duplicated (one spare slot for the insert that usually
// follows) while the published epoch still shares it.
func (g *Grid) writableBucket(w *Snapshot, leaf int32) *[]int32 {
	b := &writablePage(w.leaves, g.base.leaves, emptyBuckets, leaf>>cellPageShift)[leaf&cellPageMask]
	if g.base.leaves != nil && sameArray(*b, g.base.CellUsers(leaf)) {
		*b = append(make([]int32, 0, len(*b)+1), *b...)
	}
	return b
}

// Layout returns the grid geometry.
func (g *Grid) Layout() *Layout { return g.layout }

// CellUsers returns the members of a leaf cell (do not modify). Writer-side
// view.
func (g *Grid) CellUsers(leafIdx int32) []int32 { return g.view().CellUsers(leafIdx) }

// LeafOf returns the leaf cell currently holding the user, or -1 when the
// user has no location. Index layers that maintain per-cell aggregates (the
// AIS social summaries) use this to find the old bucket before a move.
func (g *Grid) LeafOf(id int32) int32 { return g.view().LeafOf(id) }

// insert files a user whose point is written under the leaf that point maps
// to.
func (g *Grid) insert(id int32) {
	w := g.work
	leaf := w.leafAt(w.Point(id))
	b := g.writableBucket(w, leaf)
	*b = append(*b, id)
	g.setLocated(w, id, true)
	g.adjustCounts(leaf, +1)
	w.numLocated++
}

// remove takes a located user out of leaf, the leaf its point mapped to
// before any write of its new point.
func (g *Grid) remove(id, leaf int32) {
	w := g.work
	b := g.writableBucket(w, leaf)
	bucket := *b
	for i, v := range bucket {
		if v == id {
			bucket[i] = bucket[len(bucket)-1]
			*b = bucket[:len(bucket)-1]
			break
		}
	}
	g.setLocated(w, id, false)
	g.adjustCounts(leaf, -1)
	w.numLocated--
}

// adjustCounts propagates an occupancy delta from a leaf up every level
// above it (the leaf's own count is its bucket length).
func (g *Grid) adjustCounts(leaf int32, delta int32) {
	idx := leaf
	for l := g.layout.LeafLevel(); l > 0; l-- {
		idx = g.layout.ParentIndex(l, idx)
		writablePage(g.work.counts[l-1], g.base.counts[l-1], emptyCounts, idx>>cellPageShift)[idx&cellPageMask] += delta
	}
}

// Move relocates a user. Updates are handled as the paper describes: a
// deletion from the old cell and an insertion into the new one. A move that
// stays within the same leaf cell rewrites only the user's point page in the
// working epoch — membership, counts and any aggregate summaries stacked on
// top are untouched, and readers of the published snapshot see the old
// coordinates until the next Publish. Writer-side.
func (g *Grid) Move(id int32, to Point) {
	w := g.ensureWork()
	if !w.Located(id) {
		g.SetLocated(id, to)
		return
	}
	oldLeaf := w.LeafOf(id) // from the old point, so before setPoint
	g.setPoint(w, id, to)
	if oldLeaf == w.leafAt(to) {
		return
	}
	g.remove(id, oldLeaf)
	g.insert(id)
}

// SetLocated gives a previously unlocated user a location. Writer-side.
func (g *Grid) SetLocated(id int32, p Point) {
	w := g.ensureWork()
	if w.Located(id) {
		g.Move(id, p)
		return
	}
	g.setPoint(w, id, p)
	g.insert(id)
}

// RemoveLocation drops a user's location (he/she becomes "infinitely far").
// Writer-side.
func (g *Grid) RemoveLocation(id int32) {
	w := g.ensureWork()
	if !w.Located(id) {
		return
	}
	g.remove(id, w.LeafOf(id))
}
