package aggindex

import (
	"math"
	"math/rand"
	"testing"

	"ssrq/internal/spatial"
)

// verifySnapshotInvariants checks that a published epoch's summaries exactly
// bracket that same epoch's membership at every level — the atomicity
// contract (membership and summaries publish together) that keeps Lemma 2
// sound for lock-free readers.
func verifySnapshotInvariants(t *testing.T, f *fixture, sn *Snapshot) {
	t.Helper()
	g := sn.Grid()
	layout := g.Layout()
	m := f.lm.M()
	leaf := layout.LeafLevel()
	for level := 0; level <= leaf; level++ {
		for idx := int32(0); idx < int32(layout.NumCells(level)); idx++ {
			var members []int32
			var walk func(l int, i int32)
			walk = func(l int, i int32) {
				if l == leaf {
					members = append(members, g.CellUsers(i)...)
					return
				}
				for _, c := range layout.ChildIndices(l, i, nil) {
					walk(l+1, c)
				}
			}
			walk(level, idx)
			for j := 0; j < m; j++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, u := range members {
					d := f.lm.VertexRow(u)[j]
					if d < lo {
						lo = d
					}
					if d > hi {
						hi = d
					}
				}
				lo, hi = outward(lo, hi)
				if got := sn.MinSummary(level, idx, j); !sameBits(got, lo) {
					t.Fatalf("epoch %d level %d cell %d lm %d: min %v, want %v", sn.Epoch(), level, idx, j, got, lo)
				}
				if got := sn.MaxSummary(level, idx, j); !sameBits(got, hi) {
					t.Fatalf("epoch %d level %d cell %d lm %d: max %v, want %v", sn.Epoch(), level, idx, j, got, hi)
				}
			}
		}
	}
}

// TestRemoveLocationNarrowsNewEpochOnly: removing the member responsible
// for a summary extreme narrows the new epoch's summaries while the
// previously captured epoch keeps the wide values — narrowing under
// copy-on-write never writes through to published state.
func TestRemoveLocationNarrowsNewEpochOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := mkFixture(t, rng, 120, 2, 4, 2, 0, false)
	layout := f.grid.Layout()
	leafLevel := layout.LeafLevel()
	for idx := int32(0); idx < int32(layout.NumCells(leafLevel)); idx++ {
		users := f.grid.CellUsers(idx)
		if len(users) < 2 {
			continue
		}
		// The stored max is rounded up to a float32: maxD is the largest
		// member's, rounded.
		maxU, maxD := int32(-1), math.Inf(-1)
		for _, u := range users {
			if d := float64(roundUp(f.lm.VertexRow(u)[0])); d > maxD {
				maxU, maxD = u, d
			}
		}
		// Need the extreme to be unique so removal must narrow.
		unique := true
		for _, u := range users {
			if u != maxU && float64(roundUp(f.lm.VertexRow(u)[0])) == maxD {
				unique = false
			}
		}
		if !unique {
			continue
		}
		old := f.ix.Snapshot()
		oldMax := old.MaxSummary(leafLevel, idx, 0)
		if oldMax != maxD {
			t.Fatalf("fixture summary %v, want %v", oldMax, maxD)
		}
		f.apply(Op{ID: maxU, Remove: true})
		cur := f.ix.Snapshot()
		if cur == old {
			t.Fatal("RemoveLocation did not publish a new epoch")
		}
		if got := cur.MaxSummary(leafLevel, idx, 0); got >= maxD {
			t.Fatalf("new epoch max %v not narrowed below %v", got, maxD)
		}
		if got := old.MaxSummary(leafLevel, idx, 0); got != maxD {
			t.Fatalf("old epoch narrowed in place: %v, want %v", got, maxD)
		}
		if old.Grid().LeafOf(maxU) != idx || cur.Grid().LeafOf(maxU) != -1 {
			t.Fatal("membership epochs inconsistent with removal")
		}
		verifySnapshotInvariants(t, f, cur)
		verifyInvariants(t, f)
		return
	}
	t.Skip("no leaf with a unique max-responsible member")
}

// TestSetLocatedWidensNewEpochOnly: locating a user widens the destination
// leaf's summaries in the new epoch only.
func TestSetLocatedWidensNewEpochOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := mkFixture(t, rng, 100, 2, 4, 1, 0.4, false)
	// Find an unlocated user and a destination cell with members.
	var id int32 = -1
	for u := int32(0); u < 100; u++ {
		if f.grid.LeafOf(u) < 0 {
			id = u
			break
		}
	}
	if id < 0 {
		t.Skip("everyone located")
	}
	layout := f.grid.Layout()
	leafLevel := layout.LeafLevel()
	var dst int32 = -1
	for idx := int32(0); idx < int32(layout.NumCells(leafLevel)); idx++ {
		if len(f.grid.CellUsers(idx)) > 0 {
			dst = idx
			break
		}
	}
	if dst < 0 {
		t.Skip("empty grid")
	}
	r := layout.CellRect(leafLevel, dst)
	target := spatial.Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}

	old := f.ix.Snapshot()
	oldMin := old.MinSummary(leafLevel, dst, 0)
	oldMax := old.MaxSummary(leafLevel, dst, 0)
	f.apply(Op{ID: id, To: target})
	cur := f.ix.Snapshot()

	lo, hi := outward(f.lm.VertexRow(id)[0], f.lm.VertexRow(id)[0])
	wantMin, wantMax := math.Min(oldMin, lo), math.Max(oldMax, hi)
	if cur.MinSummary(leafLevel, dst, 0) != wantMin || cur.MaxSummary(leafLevel, dst, 0) != wantMax {
		t.Fatalf("new epoch summary (%v,%v), want (%v,%v)",
			cur.MinSummary(leafLevel, dst, 0), cur.MaxSummary(leafLevel, dst, 0), wantMin, wantMax)
	}
	if old.MinSummary(leafLevel, dst, 0) != oldMin || old.MaxSummary(leafLevel, dst, 0) != oldMax {
		t.Fatal("old epoch widened in place")
	}
	verifySnapshotInvariants(t, f, cur)
}

// TestBatchedApplyMatchesSequential: one Apply of N ops must end in exactly
// the state N single-op applies produce — deferred propagation and per-batch
// COW are pure amortizations, not semantic changes.
func TestBatchedApplyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mkOps := func(rng *rand.Rand, n, steps int) []Op {
		ops := make([]Op, steps)
		for i := range ops {
			switch rng.Intn(4) {
			case 0:
				ops[i] = Op{ID: int32(rng.Intn(n)), Remove: true}
			default:
				ops[i] = Op{ID: int32(rng.Intn(n)), To: spatial.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}}
			}
		}
		return ops
	}
	for trial := 0; trial < 4; trial++ {
		seedA := rand.New(rand.NewSource(int64(300 + trial)))
		fA := mkFixture(t, seedA, 150, 3, 4, 2, 0.2, false)
		seedB := rand.New(rand.NewSource(int64(300 + trial)))
		fB := mkFixture(t, seedB, 150, 3, 4, 2, 0.2, false)
		ops := mkOps(rng, 150, 120)

		fA.apply(ops...) // one epoch
		for _, op := range ops {
			fB.apply(op) // one epoch each
		}
		snA, snB := fA.ix.Snapshot(), fB.ix.Snapshot()
		layout := fA.grid.Layout()
		for level := 0; level < layout.Levels; level++ {
			for idx := int32(0); idx < int32(layout.NumCells(level)); idx++ {
				for j := 0; j < fA.lm.M(); j++ {
					if snA.MinSummary(level, idx, j) != snB.MinSummary(level, idx, j) ||
						snA.MaxSummary(level, idx, j) != snB.MaxSummary(level, idx, j) {
						t.Fatalf("trial %d: batched and sequential summaries diverge at level %d cell %d", trial, level, idx)
					}
				}
			}
		}
		for id := int32(0); id < 150; id++ {
			if snA.Grid().LeafOf(id) != snB.Grid().LeafOf(id) {
				t.Fatalf("trial %d: membership diverges for user %d", trial, id)
			}
		}
		verifySnapshotInvariants(t, fA, snA)
		verifyInvariants(t, fA)
	}
}

// TestSnapshotPairsSummariesWithMembership: an old epoch's Lemma-2 bounds
// stay sound for the old epoch's membership even after heavy churn has
// rewritten the live index.
func TestSnapshotPairsSummariesWithMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := mkFixture(t, rng, 150, 3, 4, 2, 0.1, false)
	old := f.ix.Snapshot()
	for step := 0; step < 400; step++ {
		id := int32(rng.Intn(150))
		if rng.Intn(4) == 0 {
			f.apply(Op{ID: id, Remove: true})
		} else {
			f.apply(Op{ID: id, To: spatial.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}})
		}
	}
	verifySnapshotInvariants(t, f, old)
	verifySnapshotInvariants(t, f, f.ix.Snapshot())
}
