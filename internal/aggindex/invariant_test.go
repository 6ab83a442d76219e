package aggindex

import (
	"math"
	"math/rand"
	"reflect"
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
// leaf's min/max/label summary from its members under that epoch's landmark
// tables, every internal cell's from its children, every count from below,
// and every located user filed in exactly the leaf it maps to.
func verifyStructure(t *testing.T, sn *Snapshot, labels []uint64) {
	t.Helper()
	g := sn.Grid()
	layout := g.Layout()
	lm := sn.Landmarks()
	leaf := layout.LeafLevel()
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
		for j := 0; j < sn.m; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, u := range g.CellUsers(idx) {
				lo, hi = math.Min(lo, lm.VertexRow(u)[j]), math.Max(hi, lm.VertexRow(u)[j])
			}
			if sn.MinSummary(leaf, idx, j) != lo || sn.MaxSummary(leaf, idx, j) != hi {
				t.Fatalf("epoch %d leaf %d lm %d: (%v, %v), members give (%v, %v)",
					sn.Epoch(), idx, j, sn.MinSummary(leaf, idx, j), sn.MaxSummary(leaf, idx, j), lo, hi)
			}
		}
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
			for _, c := range kids {
				mask |= sn.CellLabelMask(l+1, c)
				count += g.CountAt(l+1, c)
			}
			for j := 0; j < sn.m; j++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, c := range kids {
					lo, hi = math.Min(lo, sn.MinSummary(l+1, c, j)), math.Max(hi, sn.MaxSummary(l+1, c, j))
				}
				if sn.MinSummary(l, idx, j) != lo || sn.MaxSummary(l, idx, j) != hi {
					t.Fatalf("epoch %d level %d cell %d lm %d: (%v, %v), children give (%v, %v)",
						sn.Epoch(), l, idx, j, sn.MinSummary(l, idx, j), sn.MaxSummary(l, idx, j), lo, hi)
				}
			}
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
		}
	}
	if st := sub.Stats(); st.LandmarkRebuilds == 0 || st.LandmarkRepairs == 0 {
		t.Fatalf("churn too gentle to exercise repair and recompute: %+v", st)
	}
}
