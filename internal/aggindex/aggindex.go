// Package aggindex implements the paper's Aggregate Index (§5.1): a
// multi-level regular grid whose cells carry *social summaries* — for each
// of the M landmarks, the minimum (m̌) and maximum (m̂) shortest-path
// distance between any user in the cell and that landmark. The summaries
// extend the landmark triangle-inequality bound from individual vertices to
// whole groups (Lemma 2), yielding the combined MINF lower bound that drives
// the AIS branch-and-bound search (Theorem 1).
//
// The index wraps the plain spatial grid for membership and occupancy, and
// maintains summaries under location updates exactly as §5.1 prescribes:
// deletion from the old cell (recomputing components the mover was
// responsible for), insertion into the new one (widening m̌/m̂ as needed),
// with changes propagating recursively to upper levels.
//
// Concurrency follows the epoch/snapshot model of the underlying grid, with
// one addition: grid membership and social summaries are published together
// as a single Snapshot through one atomic pointer, so a reader can never
// pair new membership with stale summaries (which would break the Lemma 2
// bounds). Writers apply batches of updates copy-on-write per page of cells
// (an epoch duplicates the pages it writes and the spines pointing at them,
// nothing proportional to the grid) and carry leaf changes upward once per
// batch, level by level with §5.1's widen-or-recompute rule, before a single
// Publish installs the next epoch.
//
// The social dimension — the mutable edge overlay and the dynamic landmark
// tables — lives in a Social substrate (see substrate.go) that an Index
// *consumes* rather than owns: an engine's S ≥ 1 spatial indexes all run over
// ONE social world. A write batch is one call of Apply: the substrate applies
// the batch's edge ops once, and every index then re-derives exactly the cell
// summaries the social change invalidated, applies its own location ops and
// publishes once. Every published Snapshot therefore pairs grid membership,
// graph, landmark tables and summaries of one consistent version — the
// Lemma-2 epoch-coordination invariant survives sharing.
//
// An index has no lock of its own. The engine that owns it serializes Apply
// under its writer lock — the contract spatial.Grid documents for itself.
package aggindex

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"ssrq/internal/graph"
	"ssrq/internal/landmark"
	"ssrq/internal/spatial"
)

// OpKind discriminates location ops from edge ops in one update stream.
type OpKind uint8

const (
	// OpLocation is a move/locate (Remove false) or a location removal
	// (Remove true, To ignored). The zero Kind, so plain location Ops keep
	// their historical literal form.
	OpLocation OpKind = iota
	// OpEdgeUpsert inserts undirected edge (U,V) with weight W, or updates
	// its weight when present.
	OpEdgeUpsert
	// OpEdgeRemove deletes undirected edge (U,V); a no-op when absent.
	OpEdgeRemove
)

// Op is one world update: a location op (Kind OpLocation, using ID/To/
// Remove) or a social edge op (Kind OpEdgeUpsert/OpEdgeRemove, using U/V/W).
type Op struct {
	ID     int32
	To     spatial.Point
	Remove bool

	Kind OpKind
	U, V int32
	W    float64
}

// Snapshot is one immutable epoch of the aggregate index: a grid snapshot,
// the social graph and landmark set current at publication, and the min/max
// landmark summaries computed against exactly those. Readers load it once
// (no lock) and evaluate membership, occupancy, graph traversals and Lemma-2
// bounds against a single consistent version.
type Snapshot struct {
	g           *spatial.Snapshot
	soc         *graph.Graph   // social graph of the substrate epoch paired in
	lm          *landmark.Set  // landmark epoch the summaries were computed on
	sums        [][]*[]float32 // [level][page]: one row per cell, see row
	labelSums   [][]*labelPage // [level][page]: OR of member label masks (nil when unlabeled)
	labels      []uint64       // immutable per-user label bitmasks (nil when unlabeled)
	m           int
	epoch       uint64
	socialEpoch uint64
	publishedAt time.Time
}

// Grid returns the spatial snapshot this epoch pairs the summaries with.
func (s *Snapshot) Grid() *spatial.Snapshot { return s.g }

// SocialGraph returns this epoch's social graph.
func (s *Snapshot) SocialGraph() *graph.Graph { return s.soc }

// Landmarks returns this epoch's landmark set — the tables every summary in
// this snapshot was computed from.
func (s *Snapshot) Landmarks() *landmark.Set { return s.lm }

// Epoch returns the index epoch (0 at construction, +1 per published batch).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// SocialEpoch returns the social graph version (0 at construction, +1 per
// batch with an effective edge op). The CH-based variants answer only at 0,
// the epoch their hierarchy was built on.
func (s *Snapshot) SocialEpoch() uint64 { return s.socialEpoch }

// PublishedAt returns when this epoch was installed.
func (s *Snapshot) PublishedAt() time.Time { return s.publishedAt }

// CellLabelMask returns the OR of the label bitmasks of every member of the
// cell (0 for an empty cell or an unlabeled index). A filtered query prunes
// the cell outright when the mask misses its filter — no member can match.
// Masks are maintained beside the min/max summaries and published in the
// same snapshot, so they always describe exactly this epoch's membership.
func (s *Snapshot) CellLabelMask(level int, idx int32) uint64 {
	if s.labelSums == nil {
		return 0
	}
	return s.labelSums[level][idx>>sumPageShift][idx&sumPageMask]
}

// UserLabels returns user u's label bitmask (0 when the index is unlabeled).
func (s *Snapshot) UserLabels(u int32) uint64 {
	if s.labels == nil {
		return 0
	}
	return s.labels[u]
}

// MinSummary returns m̌[j] for the cell, the minimum graph distance between
// any member user and landmark j rounded down to a float32 (+Inf for an
// empty cell).
func (s *Snapshot) MinSummary(level int, idx int32, j int) float64 {
	return float64(row(s.sums[level], idx, s.m)[j])
}

// MaxSummary returns m̂[j] for the cell, rounded up to a float32 (−Inf for an
// empty cell).
func (s *Snapshot) MaxSummary(level int, idx int32, j int) float64 {
	return float64(row(s.sums[level], idx, s.m)[s.m+j])
}

// SocialLowerBound evaluates Lemma 2: a lower bound on the graph distance
// between the query vertex (whose landmark vector is qvec) and every user in
// the cell. Empty cells return +Inf.
func (s *Snapshot) SocialLowerBound(level int, idx int32, qvec []float64) float64 {
	return lemma2(row(s.sums[level], idx, s.m), s.m, qvec)
}

// SocialLowerBoundsInto evaluates Lemma 2 for every cell of one level in a
// single pass over the summary pages, appending one bound per cell into dst
// (resized to the level's cell count). Equivalent to calling
// SocialLowerBound per cell — the two share the per-cell kernel — but walks
// the rows page by page in cell order and lets pooled callers (AIS seeding)
// evaluate a whole level without any per-cell call or allocation.
func (s *Snapshot) SocialLowerBoundsInto(level int, qvec []float64, dst []float64) []float64 {
	w, n := 2*s.m, s.g.Layout().NumCells(level)
	dst = slices.Grow(dst[:0], n)
	for _, pg := range s.sums[level] {
		rows := *pg
		for base := 0; base < len(rows) && len(dst) < n; base += w {
			dst = append(dst, lemma2(rows[base:base+w], s.m, qvec))
		}
	}
	return dst
}

// lemma2 is the per-cell Lemma-2 kernel over one cell's summary row (see
// row) — shared by the single-cell and batched entry points so they cannot
// diverge. A stored row's interval contains the exact min/max, so the bound
// it gives is at most the exact row's (the float64 instance, which tests
// evaluate as the reference) and stays admissible.
func lemma2[F float32 | float64](r []F, m int, qvec []float64) float64 {
	mins, maxs := r[:m], r[m:2*m]
	best := 0.0
	for j := 0; j < m; j++ {
		mq := qvec[j]
		lo, hi := float64(mins[j]), float64(maxs[j])
		switch {
		case mq < lo:
			if math.IsInf(lo, 1) {
				// Either the cell is empty, or no member is reachable from
				// landmark j while the query is: both prune.
				return graph.Infinity
			}
			if d := lo - mq; d > best {
				best = d
			}
		case mq > hi:
			if math.IsInf(mq, 1) {
				// Query unreachable from landmark j but every member is:
				// different components, infinite distance.
				if !math.IsInf(hi, 1) {
					return graph.Infinity
				}
				continue
			}
			if d := mq - hi; d > best {
				best = d
			}
		}
	}
	return best
}

// Index is the AIS aggregate index over one grid. Readers call Snapshot()
// and work lock-free against the returned epoch. A write (Apply, under the
// owning engine's writer lock) builds the next epoch copy-on-write and
// publishes grid, social state and summaries atomically as one Snapshot; it
// never blocks readers.
type Index struct {
	grid *spatial.Grid
	m    int

	published atomic.Pointer[Snapshot]

	// social is the substrate epoch this index's summaries are currently
	// computed against. It moves only inside apply, together with the
	// summaries it invalidated, so the two are never paired across epochs.
	social *SocialSnapshot

	// Working summaries for the epoch under construction, copy-on-write per
	// page of cells (see cowLevels). labels is the immutable per-user label
	// bitmask slice (nil for an unlabeled dataset); labelSums then holds one
	// OR'd mask per cell beside the min/max rows, published in the same
	// snapshot so filtered pruning never pairs new membership with stale
	// masks.
	sums      cowLevels[*[]float32]
	labels    []uint64
	labelSums cowLevels[*labelPage]
	epoch     uint64 // of the next snapshot to publish

	// dirty[l] collects the level-l cells whose summaries changed during the
	// current batch; redo[l] the internal level-l cells whose summaries must
	// be re-derived from their children. propagateDirty drains both, level by
	// level, before Publish.
	dirty, redo []cellSet
	// acc, ex and kids are the recompute scratch: one row, its exact float64
	// extremes and one child list.
	acc  []float32
	ex   []float64
	kids []int32
	// syncSeen is resync's leaf-dedup scratch, built by the first batch that
	// changes an edge.
	syncSeen cellSet
}

// EpochDelta describes what one published write batch changed: the users
// whose location ops it applied and whether the social state (graph or
// landmark tables) moved. Snapshot carries the social state the change was
// published with. The sharded engine delivers one per published view
// (shard.Engine.OnEpoch); Moved is only valid for the duration of the
// callback — the producer reuses the backing array.
type EpochDelta struct {
	SocialChanged bool
	Moved         []int32
	Snapshot      *Snapshot
}

// Config tunes the social substrate built by NewSocialSubstrate.
type Config struct {
	// CompactThreshold is the overlay delta size (patched vertices) that
	// triggers folding the delta back into a pure CSR (default
	// max(1024, n/8)).
	CompactThreshold int
	// Labels is the per-user attribute bitmask slice (nil = unlabeled).
	// Like the graph topology it is fixed for the substrate's lifetime; the
	// substrate and every attached index read it without copying. Indexes
	// built over a labeled substrate maintain per-cell OR'd label masks for
	// filtered-query pruning.
	Labels []uint64
}

// NewShared builds an aggregate index that consumes an existing social
// substrate: the index owns only its grid and summaries, while graph and
// landmark tables come from (and are maintained by) sub. Any number of
// indexes may share one substrate — the sharded engine builds S of them, so
// the social dimension is stored and maintained once instead of S times. The
// summaries are computed against sub's current epoch, and the index learns of
// later ones only through Apply: build every index of a substrate before its
// first write. The grid must not be mutated behind the index's back
// afterwards: the index becomes the grid's single writer.
func NewShared(grid *spatial.Grid, sub *Social) (*Index, error) {
	if grid == nil || sub == nil {
		return nil, fmt.Errorf("aggindex: nil grid or social substrate")
	}
	m := sub.Landmarks().M()
	ix := &Index{
		grid:   grid,
		m:      m,
		social: sub.Snapshot(),
		acc:    make([]float32, 2*m),
		ex:     make([]float64, 2*m),
		labels: sub.labels,
	}
	layout := grid.Layout()
	empty := make([]float32, 2*m*sumPageCells)
	for base := 0; base < len(empty); base += 2 * m {
		emptyRow(empty[base:base+2*m], m)
	}
	ix.sums = cowLevels[*[]float32]{empty: &empty, dup: func(p *[]float32) *[]float32 { cp := slices.Clone(*p); return &cp }}
	ix.labelSums = cowLevels[*labelPage]{empty: new(labelPage), dup: func(p *labelPage) *labelPage { cp := *p; return &cp }}
	for l := 0; l < layout.Levels; l++ {
		cells := layout.NumCells(l)
		pages := (cells + sumPageCells - 1) / sumPageCells
		ix.sums.addLevel(pages)
		if ix.labels != nil {
			ix.labelSums.addLevel(pages)
		}
		ix.dirty = append(ix.dirty, newCellSet(cells))
		if l < layout.LeafLevel() {
			ix.redo = append(ix.redo, newCellSet(cells))
		}
	}
	ix.buildSummaries()
	ix.publish()
	return ix, nil
}

// buildSummaries computes leaf summaries from members, then parents from
// children. Nothing is published yet, so only a cell's first write to the
// empty page copies it: an empty cell writes nothing and keeps its page
// shared.
func (ix *Index) buildSummaries() {
	layout := ix.grid.Layout()
	leafLevel := layout.LeafLevel()
	for idx := int32(0); idx < int32(layout.NumCells(leafLevel)); idx++ {
		ix.recomputeLeaf(idx)
	}
	for l := leafLevel - 1; l >= 0; l-- {
		for idx := int32(0); idx < int32(layout.NumCells(l)); idx++ {
			ix.recomputeFromChildren(l, idx)
		}
	}
}

// Snapshot returns the most recently published epoch; immutable and safe
// for unlimited concurrent readers.
func (ix *Index) Snapshot() *Snapshot { return ix.published.Load() }

// row returns the cell's working summary row (read-only).
func (ix *Index) row(level int, idx int32) []float32 {
	return row(ix.sums.spines[level], idx, ix.m)
}

// writableRow returns the cell's working summary row for writing, its page
// duplicated first if the published snapshot still shares it.
func (ix *Index) writableRow(level int, idx int32) []float32 {
	pg := *ix.sums.writable(level, idx>>sumPageShift)
	base := int(idx&sumPageMask) * 2 * ix.m
	return pg[base : base+2*ix.m]
}

// mask returns the cell's working label mask (labeled indexes only).
func (ix *Index) mask(level int, idx int32) uint64 {
	return ix.labelSums.spines[level][idx>>sumPageShift][idx&sumPageMask]
}

// setMask writes the cell's label mask, copy-on-write like writableRow.
func (ix *Index) setMask(level int, idx int32, m uint64) {
	ix.labelSums.writable(level, idx>>sumPageShift)[idx&sumPageMask] = m
}

// publish installs the working state as the next epoch.
func (ix *Index) publish() {
	s := &Snapshot{
		g:           ix.grid.Publish(),
		soc:         ix.social.g,
		lm:          ix.social.lm,
		sums:        ix.sums.publish(),
		labels:      ix.labels,
		m:           ix.m,
		epoch:       ix.epoch,
		socialEpoch: ix.social.epoch,
		publishedAt: time.Now(),
	}
	if ix.labels != nil {
		s.labelSums = ix.labelSums.publish()
	}
	ix.published.Store(s)
	ix.epoch++
}

// Apply is one write batch over a substrate and the indexes that consume it,
// the one place a batch's edges and moves meet: the batch's edge ops apply
// to sub once, then each index ixs[i] takes the social change and its own
// location ops locs[i] and publishes one epoch — none when neither changed
// anything it holds. Location ops in edges and edge ops in locs are skipped,
// so a single index may be handed a mixed batch as both. Callers serialize
// Apply under their writer lock; readers never wait.
func Apply(sub *Social, edges []Op, ixs []*Index, locs [][]Op) {
	sn, dirty := sub.ApplyEdges(edges)
	for i, ix := range ixs {
		ix.apply(sn, dirty, locs[i])
	}
}

// apply re-syncs the leaves holding the social change's dirty vertices (sn is
// nil when the batch changed no edge), applies the location ops, carries the
// changed cells up once and publishes — so the new graph and tables are
// published with summaries recomputed against exactly them. The re-sync runs
// first: every later widen-or-narrow then compares rows and member vectors of
// one landmark epoch.
func (ix *Index) apply(sn *SocialSnapshot, dirty []graph.VertexID, ops []Op) {
	changed := sn != nil
	if changed {
		ix.social = sn
		ix.resync(dirty)
	}
	for _, op := range ops {
		if op.Kind == OpLocation {
			ix.applyOne(op)
			changed = true
		}
	}
	if !changed {
		return
	}
	ix.propagateDirty()
	ix.publish()
}

// resync recomputes, once each, the leaves of this grid that hold a dirty
// vertex. Several dirty vertices share a leaf, and most live in other
// indexes' grids.
func (ix *Index) resync(dirty []graph.VertexID) {
	if len(dirty) > 0 && ix.syncSeen.in == nil {
		layout := ix.grid.Layout()
		ix.syncSeen = newCellSet(layout.NumCells(layout.LeafLevel()))
	}
	for _, v := range dirty {
		leaf := ix.grid.LeafOf(v)
		if leaf < 0 || ix.syncSeen.has(leaf) {
			continue
		}
		ix.syncSeen.add(leaf)
		if ix.recomputeLeaf(leaf) {
			ix.touchLeaf(leaf)
		}
	}
	ix.syncSeen.reset()
}

// applyOne performs one op's membership change and leaf-level summary
// maintenance, deferring upward propagation to the end of the batch.
func (ix *Index) applyOne(op Op) {
	if op.Remove {
		leaf := ix.grid.LeafOf(op.ID)
		if leaf < 0 {
			return
		}
		ix.grid.RemoveLocation(op.ID)
		ix.onRemove(leaf, op.ID)
		return
	}
	oldLeaf := ix.grid.LeafOf(op.ID)
	ix.grid.Move(op.ID, op.To)
	newLeaf := ix.grid.LeafOf(op.ID)
	if oldLeaf == newLeaf {
		return // intra-cell move: coordinates updated, summaries unaffected
	}
	if oldLeaf >= 0 {
		ix.onRemove(oldLeaf, op.ID)
	}
	if newLeaf >= 0 {
		ix.onInsert(newLeaf, op.ID)
	}
}

// SocialStats is a point-in-time view of the social dimension: overlay
// shape, edge-op counters and landmark maintenance work.
type SocialStats struct {
	// SocialEpoch is the social graph version (+1 per batch with edge ops).
	SocialEpoch uint64
	// NumEdges is the current undirected edge count.
	NumEdges int
	// PatchedVertices is the overlay delta size awaiting compaction.
	PatchedVertices int
	// Compactions counts delta folds back into pure CSR.
	Compactions int64
	// EdgeAdds/EdgeRemoves/EdgeReweights/EdgeNoops count effective ops.
	EdgeAdds, EdgeRemoves, EdgeReweights, EdgeNoops int64
	// LandmarkRepairs counts incremental repairs run to completion;
	// RepairedVertices the table entries they rewrote; LandmarkRebuilds the
	// tables recomputed at the end of a batch whose repairs rewrote more than
	// one table's worth of entries for that landmark.
	LandmarkRepairs, RepairedVertices, LandmarkRebuilds int64
	// LandmarkDisables and LandmarkForcedInstalls are always zero: no
	// landmark is ever disabled or installed out of band. They remain because
	// the benchmark harness reads them.
	LandmarkDisables, LandmarkForcedInstalls int64
}
