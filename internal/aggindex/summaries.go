package aggindex

import (
	"math"
	"slices"
)

// Summary storage. A cell's summary is one row of 2m float32s — m̌[0..m) then
// m̂[0..m) — and a level's rows are packed sumPageCells cells to a page (256 B
// at m = 8; label masks likewise, one uint64 per cell). Each row holds its
// cell's exact float64 min/max rounded outward, m̌ down and m̂ up (see
// roundDown): Lemma 2 needs only an interval that contains the exact one.
// Rounding is monotone, so the min of rounded values is the rounded min and
// a row equals the outward rounding of its exact min/max bit for bit, at
// every level, however it was reached. Pages and the per-level spines of
// page pointers are copy-on-write across epochs: an epoch duplicates the
// pages it writes and the spine of each level it writes, so a move costs a
// few hundred bytes per touched page instead of a whole level. A page no
// write has reached is the index's one shared empty page, so summaries cost
// memory only where users are. The page size is measured
// (TestEpochByteBudget), like the grid's.
const (
	sumPageShift = 2
	sumPageCells = 1 << sumPageShift
	sumPageMask  = sumPageCells - 1
)

type labelPage [sumPageCells]uint64

// roundDown returns the largest float32 not above x: m̌'s rounding. Finite
// values above MaxFloat32 round to MaxFloat32; ±Inf is kept.
func roundDown(x float64) float32 {
	switch {
	case x > math.MaxFloat32 && !math.IsInf(x, 1):
		return math.MaxFloat32
	case x < -math.MaxFloat32:
		return float32(math.Inf(-1))
	}
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// roundUp returns the smallest float32 not below x: m̂'s rounding, the
// mirror of roundDown.
func roundUp(x float64) float32 { return -roundDown(-x) }

// row returns cell idx's row within one level's pages.
func row(pages []*[]float32, idx int32, m int) []float32 {
	base := int(idx&sumPageMask) * 2 * m
	return (*pages[idx>>sumPageShift])[base : base+2*m]
}

// emptyRow resets r to the summary of an empty cell: (+Inf, −Inf).
func emptyRow[F float32 | float64](r []F, m int) {
	for j := 0; j < m; j++ {
		r[j], r[m+j] = F(math.Inf(1)), F(math.Inf(-1))
	}
}

// widen stretches row r to cover one member's landmark vector, rounded
// outward. A stored float32 bound is below d's rounding down iff it is below
// d itself, so only a component that widens is rounded.
func widen(r []float32, vec []float64) {
	m := len(vec)
	for j, d := range vec {
		if d < float64(r[j]) {
			r[j] = roundDown(d)
		}
		if d > float64(r[m+j]) {
			r[m+j] = roundUp(d)
		}
	}
}

// widenExact stretches the exact float64 extremes ex (min then max) to cover
// one member's landmark vector.
func widenExact(ex, vec []float64) {
	m := len(vec)
	for j, d := range vec {
		if d < ex[j] {
			ex[j] = d
		}
		if d > ex[m+j] {
			ex[m+j] = d
		}
	}
}

// roundOutward stores exact extremes ex as row r: each minimum rounded down,
// each maximum up. Rounding is monotone, so the rounding of the exact min is
// the min of the members' roundings: this is the row a widen per member
// reaches, bit for bit, at one rounding per component instead of one per
// widening.
func roundOutward(r []float32, ex []float64) {
	m := len(ex) / 2
	for j := 0; j < m; j++ {
		r[j], r[m+j] = roundDown(ex[j]), roundUp(ex[m+j])
	}
}

// merge stretches row r to cover another row.
func merge(r, o []float32) {
	m := len(r) / 2
	for j := 0; j < m; j++ {
		if o[j] < r[j] {
			r[j] = o[j]
		}
		if o[m+j] > r[m+j] {
			r[m+j] = o[m+j]
		}
	}
}

// cowLevels is one paged array per grid level, copy-on-write across epochs:
// spines[level][page] is shared with the published snapshot until the
// writer's first write of an epoch to that level duplicates the spine, and
// to that page the page. Whatever the working spines no longer share with the
// published ones was duplicated in this epoch and is private to it. Every
// slot starts at empty, one immutable page of empty cells, which the first
// write to the slot duplicates the same way, during construction too.
type cowLevels[P comparable] struct {
	spines [][]P // working
	pub    [][]P // the published snapshot's (nil before the first publish)
	empty  P
	dup    func(P) P
}

// addLevel appends a level of n page slots, each the empty page.
func (c *cowLevels[P]) addLevel(n int) {
	spine := make([]P, n)
	for i := range spine {
		spine[i] = c.empty
	}
	c.spines = append(c.spines, spine)
}

// publish returns the working spines for a snapshot, from then on shared.
func (c *cowLevels[P]) publish() [][]P {
	c.pub = slices.Clone(c.spines)
	return c.pub
}

// writable returns page pg of level for writing, duplicating the spine and
// the page first while the published snapshot still shares them, and the
// page while it is the empty page.
func (c *cowLevels[P]) writable(level int, pg int32) P {
	if c.pub != nil && &c.spines[level][0] == &c.pub[level][0] {
		c.spines[level] = slices.Clone(c.spines[level])
	}
	p := c.spines[level][pg]
	if p == c.empty || c.pub != nil && p == c.pub[level][pg] {
		p = c.dup(p)
		c.spines[level][pg] = p
	}
	return p
}

// cellSet is a duplicate-free list of one level's cells.
type cellSet struct {
	cells []int32
	in    []bool
}

func newCellSet(n int) cellSet { return cellSet{in: make([]bool, n)} }

func (s *cellSet) add(idx int32) {
	if !s.in[idx] {
		s.in[idx] = true
		s.cells = append(s.cells, idx)
	}
}

func (s *cellSet) has(idx int32) bool { return s.in[idx] }

func (s *cellSet) reset() {
	for _, c := range s.cells {
		s.in[c] = false
	}
	s.cells = s.cells[:0]
}

// touchLeaf queues a leaf whose summary changed for upward propagation.
func (ix *Index) touchLeaf(idx int32) { ix.dirty[ix.grid.Layout().LeafLevel()].add(idx) }

// storeRow writes the scratch row ix.acc as the cell's summary; reports
// whether that changed anything.
func (ix *Index) storeRow(level int, idx int32) bool {
	if slices.Equal(ix.row(level, idx), ix.acc) {
		return false
	}
	copy(ix.writableRow(level, idx), ix.acc)
	return true
}

// storeMask writes the cell's label mask; reports whether it changed.
func (ix *Index) storeMask(level int, idx int32, mask uint64) bool {
	if ix.mask(level, idx) == mask {
		return false
	}
	ix.setMask(level, idx, mask)
	return true
}

// recomputeLeaf rebuilds a leaf's summary from its members against the
// current landmark tables: the exact min/max over the member vectors, rounded
// outward once (roundOutward); reports whether it changed.
func (ix *Index) recomputeLeaf(idx int32) bool {
	lm := ix.social.lm
	users := ix.grid.CellUsers(idx)
	emptyRow(ix.ex, ix.m)
	var mask uint64
	for _, u := range users {
		widenExact(ix.ex, lm.VertexRow(u))
		if ix.labels != nil {
			mask |= ix.labels[u]
		}
	}
	roundOutward(ix.acc, ix.ex)
	leaf := ix.grid.Layout().LeafLevel()
	changed := ix.storeRow(leaf, idx)
	if ix.labels != nil {
		changed = ix.storeMask(leaf, idx, mask) || changed
	}
	return changed
}

// recomputeFromChildren rebuilds an internal cell's summary as the
// element-wise min/max over its s×s children, one child row at a time;
// reports whether it changed.
func (ix *Index) recomputeFromChildren(level int, idx int32) bool {
	ix.kids = ix.grid.Layout().ChildIndices(level, idx, ix.kids[:0])
	emptyRow(ix.acc, ix.m)
	var mask uint64
	for _, c := range ix.kids {
		merge(ix.acc, ix.row(level+1, c))
		if ix.labels != nil {
			mask |= ix.mask(level+1, c)
		}
	}
	changed := ix.storeRow(level, idx)
	if ix.labels != nil {
		changed = ix.storeMask(level, idx, mask) || changed
	}
	return changed
}

// onInsert widens summaries for a user that joined a leaf cell. Widening is
// cheap: compare the mover's landmark vector against m̌/m̂ (§5.1).
func (ix *Index) onInsert(leaf int32, id int32) {
	l := ix.grid.Layout().LeafLevel()
	vec := ix.social.lm.VertexRow(id)
	r := ix.row(l, leaf)
	for j, d := range vec {
		if d < float64(r[j]) || d > float64(r[ix.m+j]) { // as in widen
			widen(ix.writableRow(l, leaf), vec)
			ix.touchLeaf(leaf)
			break
		}
	}
	if ix.labels != nil {
		if old := ix.mask(l, leaf); old|ix.labels[id] != old {
			ix.setMask(l, leaf, old|ix.labels[id])
			ix.touchLeaf(leaf)
		}
	}
}

// onRemove narrows summaries after a user left a leaf cell. Only a leaver
// whose rounded value equals some component's stored extreme can narrow it,
// and then the leaf is re-derived over the remaining members. Rounding makes
// such ties likelier (a member whose exact value is not the extreme may
// round onto it), which costs a recompute that changes nothing, never a
// stale row: a leaver whose rounded value is off the extreme leaves a member
// that attains it.
func (ix *Index) onRemove(leaf int32, id int32) {
	l := ix.grid.Layout().LeafLevel()
	// A labeled leaver may have been the only carrier of its label bits in
	// the cell; narrowing on removal can't be decided locally, same as
	// min/max.
	responsible := ix.labels != nil && ix.labels[id] != 0
	if !responsible {
		r := ix.row(l, leaf)
		for j, d := range ix.social.lm.VertexRow(id) {
			if roundDown(d) == r[j] || roundUp(d) == r[ix.m+j] {
				responsible = true
				break
			}
		}
	}
	if responsible && ix.recomputeLeaf(leaf) {
		ix.touchLeaf(leaf)
	}
}

// propagateDirty carries the batch's changed cells up the levels with §5.1's
// rule, one level at a time, instead of re-deriving every touched parent
// from its s² children. A parent's published row is the element-wise min/max
// of its children's published rows, so for each component of m̌ (m̂ is
// symmetric) and each changed child:
//
//   - a child that narrowed (new > old) while holding the parent's value
//     (old == parent's) may have been its only holder: the parent is
//     re-derived from all its children once the level is done;
//   - otherwise the parent's new value is min(parent's, the child's new
//     value) — widening in O(M). Unchanged children still bound it by their
//     old values, and a holder that did not narrow still attains it.
//
// The child's pre-batch row is read from the published snapshot, which the
// batch never writes (every write goes to a duplicated page). A parent
// already widened below the old extreme needs no re-derivation: its new
// value is the smallest changed child's, which the widening recorded.
func (ix *Index) propagateDirty() {
	prev := ix.published.Load()
	layout := ix.grid.Layout()
	for l := layout.LeafLevel(); l > 0; l-- {
		for _, c := range ix.dirty[l].cells {
			ix.carryUp(prev, l, c, layout.ParentIndex(l, c))
		}
		ix.dirty[l].reset()
		for _, p := range ix.redo[l-1].cells {
			if ix.recomputeFromChildren(l-1, p) {
				ix.dirty[l-1].add(p)
			}
		}
		ix.redo[l-1].reset()
	}
	ix.dirty[0].reset()
}

// carryUp applies one changed level-l cell c to its parent p (see
// propagateDirty).
func (ix *Index) carryUp(prev *Snapshot, l int, c, p int32) {
	redo := &ix.redo[l-1]
	if redo.has(p) {
		return // re-derived from every child anyway
	}
	m := ix.m
	cur, old, par := ix.row(l, c), row(prev.sums[l], c, m), ix.row(l-1, p)
	grows := false
	for j := 0; j < m; j++ {
		if (cur[j] > old[j] && old[j] == par[j]) || (cur[m+j] < old[m+j] && old[m+j] == par[m+j]) {
			redo.add(p)
			return
		}
		grows = grows || cur[j] < par[j] || cur[m+j] > par[m+j]
	}
	if ix.labels != nil {
		cm, pm := ix.mask(l, c), ix.mask(l-1, p)
		if prev.CellLabelMask(l, c)&^cm != 0 {
			redo.add(p) // the child lost label bits another child may not carry
			return
		}
		if cm&^pm != 0 {
			ix.setMask(l-1, p, pm|cm)
			ix.dirty[l-1].add(p)
		}
	}
	if grows {
		merge(ix.writableRow(l-1, p), cur)
		ix.dirty[l-1].add(p)
	}
}
