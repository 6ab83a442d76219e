package aggindex

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ssrq/internal/spatial"
)

// snapCopy is a deep copy of everything a reader can observe through one
// Snapshot, summaries as raw bits.
type snapCopy struct {
	epoch, socialEpoch uint64
	rows               [][]uint64 // [level]: every cell's m̌ then m̂, as bits
	masks              [][]uint64 // [level][cell]
	pts                []spatial.Point
	located            []bool
	leafOf             []int32
	members            [][]int32 // [leaf]
	counts             [][]int32 // [level][cell]
}

func copySnapshot(sn *Snapshot) snapCopy {
	g := sn.Grid()
	layout := g.Layout()
	c := snapCopy{epoch: sn.Epoch(), socialEpoch: sn.SocialEpoch()}
	for l := 0; l < layout.Levels; l++ {
		var rows []uint64
		masks := make([]uint64, layout.NumCells(l))
		counts := make([]int32, layout.NumCells(l))
		for idx := int32(0); idx < int32(layout.NumCells(l)); idx++ {
			for j := 0; j < sn.m; j++ {
				rows = append(rows, math.Float64bits(sn.MinSummary(l, idx, j)), math.Float64bits(sn.MaxSummary(l, idx, j)))
			}
			masks[idx] = sn.CellLabelMask(l, idx)
			counts[idx] = g.CountAt(l, idx)
		}
		c.rows = append(c.rows, rows)
		c.masks = append(c.masks, masks)
		c.counts = append(c.counts, counts)
	}
	for id := int32(0); id < int32(g.NumUsers()); id++ {
		c.pts = append(c.pts, g.Point(id))
		c.located = append(c.located, g.Located(id))
		c.leafOf = append(c.leafOf, g.LeafOf(id))
	}
	for idx := int32(0); idx < int32(layout.NumCells(layout.LeafLevel())); idx++ {
		c.members = append(c.members, append([]int32{}, g.CellUsers(idx)...))
	}
	return c
}

// verifyStructure checks one published epoch against a recompute: every
// cell's min/max row is the outward rounding, bit for bit, of the exact
// min/max of its members' vectors under that epoch's landmark tables; every
// leaf's label mask comes from its members and every internal cell's from
// its children, every count from below, and every located user is filed in
// exactly the leaf it maps to.
func verifyStructure(t *testing.T, sn *Snapshot, labels []uint64) {
	t.Helper()
	g := sn.Grid()
	layout := g.Layout()
	lm := sn.Landmarks()
	leaf := layout.LeafLevel()
	m := sn.m
	// exact[l][idx*2m:] is the cell's exact float64 min/max row.
	exact := make([][]float64, layout.Levels)
	checkRow := func(l int, idx int32) {
		r := exact[l][int(idx)*2*m:][:2*m]
		for j := 0; j < m; j++ {
			lo, hi := outward(r[j], r[m+j])
			if !sameBits(sn.MinSummary(l, idx, j), lo) || !sameBits(sn.MaxSummary(l, idx, j), hi) {
				t.Fatalf("epoch %d level %d cell %d lm %d: (%v, %v), exact (%v, %v) rounds to (%v, %v)",
					sn.Epoch(), l, idx, j, sn.MinSummary(l, idx, j), sn.MaxSummary(l, idx, j), r[j], r[m+j], lo, hi)
			}
		}
	}
	for l := range exact {
		exact[l] = make([]float64, layout.NumCells(l)*2*m)
		for base := 0; base < len(exact[l]); base += 2 * m {
			for j := 0; j < m; j++ {
				exact[l][base+j], exact[l][base+m+j] = math.Inf(1), math.Inf(-1)
			}
		}
	}
	filed := 0
	for idx := int32(0); idx < int32(layout.NumCells(leaf)); idx++ {
		var mask uint64
		for _, u := range g.CellUsers(idx) {
			if g.LeafOf(u) != idx || layout.CellIndex(leaf, g.Point(u)) != idx {
				t.Fatalf("epoch %d: user %d misfiled in leaf %d", sn.Epoch(), u, idx)
			}
			mask |= labels[u]
			filed++
		}
		r := exact[leaf][int(idx)*2*m:][:2*m]
		for _, u := range g.CellUsers(idx) {
			for j, d := range lm.VertexRow(u) {
				r[j], r[m+j] = math.Min(r[j], d), math.Max(r[m+j], d)
			}
		}
		checkRow(leaf, idx)
		if sn.CellLabelMask(leaf, idx) != mask {
			t.Fatalf("epoch %d leaf %d: mask %x, members give %x", sn.Epoch(), idx, sn.CellLabelMask(leaf, idx), mask)
		}
	}
	if filed != g.NumLocated() {
		t.Fatalf("epoch %d: %d users filed, %d located", sn.Epoch(), filed, g.NumLocated())
	}
	for l := leaf - 1; l >= 0; l-- {
		for idx := int32(0); idx < int32(layout.NumCells(l)); idx++ {
			kids := layout.ChildIndices(l, idx, nil)
			var mask uint64
			var count int32
			r := exact[l][int(idx)*2*m:][:2*m]
			for _, c := range kids {
				mask |= sn.CellLabelMask(l+1, c)
				count += g.CountAt(l+1, c)
				kid := exact[l+1][int(c)*2*m:][:2*m]
				for j := 0; j < m; j++ {
					r[j], r[m+j] = math.Min(r[j], kid[j]), math.Max(r[m+j], kid[m+j])
				}
			}
			checkRow(l, idx)
			if sn.CellLabelMask(l, idx) != mask || g.CountAt(l, idx) != count {
				t.Fatalf("epoch %d level %d cell %d: mask %x count %d, children give %x %d",
					sn.Epoch(), l, idx, sn.CellLabelMask(l, idx), g.CountAt(l, idx), mask, count)
			}
		}
	}
}

// TestPagedEpochsStayExactAndIsolated drives two indexes over one labeled
// substrate with seeded random batches — moves, removals, re-locations,
// moves off the construction-time grid, edge churn repaired in place, and
// edge batches large enough that landmark tables are recomputed at the end of
// the batch — and after every batch checks (a) each index's new epoch against a full recompute at every
// level, (b) that the epochs published before the batch are
// bit-identical to deep copies taken then: page sharing never leaks a write
// into a published epoch, and (c) that a batch mixing edges and moves is one
// epoch per index.
func TestPagedEpochsStayExactAndIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const n = 300
	f := mkFixture(t, rng, n, 6, 4, 3, 0.1, false)
	labels := make([]uint64, n)
	for i := range labels {
		if rng.Intn(4) != 0 {
			labels[i] = 1<<uint(rng.Intn(8)) | 1<<uint(rng.Intn(8))
		}
	}
	sub, err := NewSocialSubstrate(f.lm, f.g, Config{Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	// Two indexes over one substrate, each locating half of the users.
	var ixs []*Index
	for half := 0; half < 2; half++ {
		located := make([]bool, n)
		for i := range located {
			located[i] = f.located[i] && i%2 == half
		}
		grid, err := spatial.NewGrid(f.grid.Layout(), f.pts, located)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewShared(grid, sub)
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, ix)
	}
	point := func() spatial.Point {
		if rng.Intn(5) == 0 { // off the construction-time grid
			return spatial.Point{X: -60 + rng.Float64()*220, Y: 100 + rng.Float64()*50}
		}
		return spatial.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	// filled and emptied count the leaves a batch moved users into from
	// empty and the leaves whose last user it took away; unlocates the
	// located users it unlocated.
	filled, emptied, unlocates := 0, 0, 0
	for round := 0; round < 60; round++ {
		var pre []*Snapshot
		var copies []snapCopy
		for _, ix := range ixs {
			pre = append(pre, ix.Snapshot())
			copies = append(copies, copySnapshot(ix.Snapshot()))
		}
		locs := make([][]Op, len(ixs))
		for h := range ixs {
			var ops []Op
			for i := 0; i < 1+rng.Intn(40); i++ {
				id := int32(2*rng.Intn(n/2) + h)
				if rng.Intn(5) == 0 {
					if pre[h].Grid().Located(id) {
						unlocates++
					}
					ops = append(ops, Op{ID: id, Remove: true})
				} else {
					ops = append(ops, Op{ID: id, To: point()})
				}
			}
			switch {
			case h == 0 && round%7 == 6:
				ops = append(ops, randomEdgeOps(rng, n, 2*n)...)
			case h == 0 && round%2 == 0:
				ops = append(ops, randomEdgeOps(rng, n, 1+rng.Intn(6))...)
			}
			rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
			locs[h] = ops
		}
		// Index 0's share carries the round's edge ops: the substrate takes
		// them from it, and index 0's location pass skips them.
		Apply(sub, locs[0], ixs, locs)
		for h, ix := range ixs {
			if got := copySnapshot(pre[h]); !reflect.DeepEqual(got, copies[h]) {
				t.Fatalf("round %d index %d: epoch %d changed after it was published", round, h, pre[h].Epoch())
			}
			// Every index takes every round's batch, edges and moves alike, as
			// exactly one epoch.
			if got, want := ix.Snapshot().Epoch(), pre[h].Epoch()+1; got != want {
				t.Fatalf("round %d index %d: epoch %d after one batch, want %d", round, h, got, want)
			}
			verifyStructure(t, ix.Snapshot(), labels)
			verifyEmptyPages(t, ix)
			before, after := pre[h].Grid(), ix.Snapshot().Grid()
			for idx := int32(0); idx < int32(after.Layout().NumCells(after.Layout().LeafLevel())); idx++ {
				switch was, is := len(before.CellUsers(idx)), len(after.CellUsers(idx)); {
				case was == 0 && is > 0:
					filled++
				case was > 0 && is == 0:
					emptied++
				}
			}
		}
	}
	if st := sub.Stats(); st.LandmarkRebuilds == 0 || st.LandmarkRepairs == 0 {
		t.Fatalf("churn too gentle to exercise repair and recompute: %+v", st)
	}
	if filled == 0 || emptied == 0 || unlocates == 0 {
		t.Fatalf("churn too gentle: %d leaves filled from empty, %d emptied, %d unlocates", filled, emptied, unlocates)
	}
}

// verifyEmptyPages checks that an index's shared empty pages still read as
// empty — rows of (+Inf, −Inf), zero label masks — and that its published
// snapshot still holds slots that read them, so the check bites.
func verifyEmptyPages(t *testing.T, ix *Index) {
	t.Helper()
	rows := *ix.sums.empty
	for j := 0; j < len(rows); j += 2 * ix.m {
		for k := 0; k < ix.m; k++ {
			if !math.IsInf(float64(rows[j+k]), 1) || !math.IsInf(float64(rows[j+ix.m+k]), -1) {
				t.Fatalf("empty summary page written: %v", rows)
			}
		}
	}
	if *ix.labelSums.empty != (labelPage{}) {
		t.Fatalf("empty label page written: %v", *ix.labelSums.empty)
	}
	sn := ix.Snapshot()
	leaf := sn.Grid().Layout().LeafLevel()
	if !slices.Contains(sn.sums[leaf], ix.sums.empty) || sn.labelSums != nil && !slices.Contains(sn.labelSums[leaf], ix.labelSums.empty) {
		t.Fatal("no leaf page left empty")
	}
}

// pagesInUse returns, per level, the page indexes whose slot is not the
// empty page, failing when two slots share a page.
func pagesInUse[P comparable](t *testing.T, spines [][]P, empty P) []map[int32]bool {
	t.Helper()
	var used []map[int32]bool
	for l, spine := range spines {
		pages, seen := map[int32]bool{}, map[P]bool{}
		for pg, p := range spine {
			if p == empty {
				continue
			}
			if seen[p] {
				t.Fatalf("level %d page %d shares its storage with another slot", l, pg)
			}
			pages[int32(pg)], seen[p] = true, true
		}
		used = append(used, pages)
	}
	return used
}

// TestSummaryPagesFollowOccupancy: indexes over one labeled substrate, each
// over users crowded into its own few known leaves, allocate exactly the
// summary and label-mask pages that cover those leaves and their ancestors;
// every other slot is the index's shared empty page.
func TestSummaryPagesFollowOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n = 200
	f := mkFixture(t, rng, n, 4, 10, 2, 0, false)
	layout := f.grid.Layout()
	leafLevel := layout.LeafLevel()
	labels := make([]uint64, n)
	for i := range labels {
		labels[i] = 1 << uint(i%5)
	}
	sub, err := NewSocialSubstrate(f.lm, f.g, Config{Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	// Odd share sizes, so each index's half of the users reaches every leaf
	// of its share; 0 and 1, and 5050 and 5051, share a page.
	for h, leaves := range [][]int32{{0, 1, 57}, {4321, 9999, 5050, 5051, 5055}} {
		pts, located := make([]spatial.Point, n), make([]bool, n)
		for id := range pts {
			r := layout.CellRect(leafLevel, leaves[id%len(leaves)])
			pts[id] = spatial.Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
			located[id] = id%2 == h
		}
		grid, err := spatial.NewGrid(layout, pts, located)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewShared(grid, sub)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]map[int32]bool, layout.Levels)
		for l := range want {
			want[l] = map[int32]bool{}
		}
		for _, idx := range leaves {
			want[leafLevel][idx>>sumPageShift] = true
			for l := leafLevel; l > 0; l-- {
				idx = layout.ParentIndex(l, idx)
				want[l-1][idx>>sumPageShift] = true
			}
		}
		sn := ix.Snapshot()
		if got := pagesInUse(t, sn.sums, ix.sums.empty); !reflect.DeepEqual(got, want) {
			t.Fatalf("index %d: summary pages %v, want %v", h, got, want)
		}
		if got := pagesInUse(t, sn.labelSums, ix.labelSums.empty); !reflect.DeepEqual(got, want) {
			t.Fatalf("index %d: label pages %v, want %v", h, got, want)
		}
		verifyStructure(t, sn, labels)
	}
}
