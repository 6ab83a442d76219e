package spatial

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkFiled fails unless, in every grid's snapshot, each user is Located
// iff it appears in exactly one bucket, that bucket is the leaf CellIndex
// files its point under, and LeafOf names it; and unless the grids locate
// exactly the users of where (user -> grid, -1 for none) at the points of
// at.
func checkFiled(t *testing.T, step string, snaps []*Snapshot, where []int, at []Point) {
	t.Helper()
	for s, sn := range snaps {
		layout := sn.Layout()
		leafLevel := layout.LeafLevel()
		seen := make([]int, sn.NumUsers())
		bucket := make([]int32, sn.NumUsers())
		for idx := int32(0); idx < int32(layout.NumCells(leafLevel)); idx++ {
			for _, u := range sn.CellUsers(idx) {
				seen[u]++
				bucket[u] = idx
			}
		}
		located := 0
		for id := int32(0); id < int32(sn.NumUsers()); id++ {
			loc := sn.Located(id)
			if loc != (seen[id] == 1) || !loc && seen[id] != 0 {
				t.Fatalf("%s: grid %d user %d: Located %v, in %d buckets", step, s, id, loc, seen[id])
			}
			if loc != (where[id] == s) {
				t.Fatalf("%s: grid %d user %d: Located %v, owner is grid %d", step, s, id, loc, where[id])
			}
			if !loc {
				if sn.LeafOf(id) != -1 {
					t.Fatalf("%s: grid %d unlocated user %d has leaf %d", step, s, id, sn.LeafOf(id))
				}
				continue
			}
			located++
			if sn.Point(id) != at[id] {
				t.Fatalf("%s: grid %d user %d at %v, want %v", step, s, id, sn.Point(id), at[id])
			}
			want := layout.CellIndex(leafLevel, sn.Point(id))
			if bucket[id] != want || sn.LeafOf(id) != want {
				t.Fatalf("%s: grid %d user %d in bucket %d, LeafOf %d, its point maps to %d", step, s, id, bucket[id], sn.LeafOf(id), want)
			}
		}
		if located != sn.NumLocated() {
			t.Fatalf("%s: grid %d locates %d users, NumLocated %d", step, s, located, sn.NumLocated())
		}
	}
}

// TestLeafFollowsPointUnderChurn drives S grids over one point slice, each
// owning the users in its share of the leaf cells, as a sharded index does:
// seeded batches of moves within and across leaves (and across owners),
// moves off the construction-time bounds, unlocates, relocations and a
// rebalance drain that hands cells to new owners. A user's leaf is derived
// from its point, so every published epoch, and the one before it, must file
// each located user in exactly the bucket its point maps to and nowhere
// else.
func TestLeafFollowsPointUnderChurn(t *testing.T) {
	for _, S := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", S), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(49 + S)))
			layout, err := NewLayout(Rect{0, 0, 100, 100}, 5, 2)
			if err != nil {
				t.Fatal(err)
			}
			leafLevel := layout.LeafLevel()
			leafOf := func(p Point) int32 { return layout.CellIndex(leafLevel, p) }
			owner := make([]int, layout.NumCells(leafLevel))
			for c := range owner {
				owner[c] = c * S / len(owner)
			}
			const n = 3*locPageSize + 100
			pts := make([]Point, n)
			where, at := make([]int, n), make([]Point, n)
			for id := range pts {
				pts[id] = Point{rng.Float64() * 100, rng.Float64() * 100}
				at[id], where[id] = pts[id], -1
				if id%6 != 0 {
					where[id] = owner[leafOf(pts[id])]
				}
			}
			grids := make([]*Grid, S)
			for s := range grids {
				located := make([]bool, n)
				for id := range located {
					located[id] = where[id] == s
				}
				if grids[s], err = NewGrid(layout, pts, located); err != nil {
					t.Fatal(err)
				}
			}
			publish := func() []*Snapshot {
				snaps := make([]*Snapshot, S)
				for s, g := range grids {
					snaps[s] = g.Publish()
				}
				return snaps
			}
			// place files id at p with the grid that owns p's leaf.
			place := func(id int32, p Point) {
				s := owner[leafOf(p)]
				if w := where[id]; w >= 0 && w != s {
					grids[w].RemoveLocation(id)
				}
				grids[s].Move(id, p)
				where[id], at[id] = s, p
			}
			prev := publish()
			checkFiled(t, "construction", prev, where, at)
			var within, across, off, unlocates, relocates, drained int
			for round := 0; round < 80; round++ {
				// Snapshots of the previous epoch must not change, so keep
				// the model they were checked against.
				prevWhere, prevAt := append([]int(nil), where...), append([]Point(nil), at...)
				for step := 0; step < 40; step++ {
					id := int32(rng.Intn(n))
					switch k := rng.Intn(10); {
					case k < 2 && where[id] >= 0: // within the leaf
						r := layout.CellRect(leafLevel, leafOf(at[id]))
						place(id, Point{r.MinX + rng.Float64()*r.Width(), r.MinY + rng.Float64()*r.Height()})
						within++
					case k < 3: // off the construction-time bounds
						place(id, Point{-50 + rng.Float64()*200, 100 + rng.Float64()*40})
						off++
					case k < 4 && where[id] >= 0:
						grids[where[id]].RemoveLocation(id)
						where[id] = -1
						unlocates++
					case k < 5 && where[id] < 0:
						p := Point{rng.Float64() * 100, rng.Float64() * 100}
						grids[owner[leafOf(p)]].SetLocated(id, p)
						where[id], at[id] = owner[leafOf(p)], p
						relocates++
					default: // anywhere, mostly across leaves
						place(id, Point{rng.Float64() * 100, rng.Float64() * 100})
						across++
					}
				}
				if round%20 == 19 {
					// A rebalance drain: a run of cells changes owner, and
					// each resident user leaves the old grid for the new
					// one at its current point.
					lo := rng.Intn(len(owner) - 40)
					for c := lo; c < lo+40; c++ {
						to := (owner[c] + 1) % S
						if to == owner[c] {
							continue
						}
						from := grids[owner[c]]
						for _, id := range append([]int32(nil), from.CellUsers(int32(c))...) {
							from.RemoveLocation(id)
							grids[to].SetLocated(id, at[id])
							where[id] = to
							drained++
						}
						owner[c] = to
					}
				}
				cur := publish()
				checkFiled(t, fmt.Sprintf("round %d", round), cur, where, at)
				checkFiled(t, fmt.Sprintf("round %d, the epoch before", round), prev, prevWhere, prevAt)
				prev = cur
			}
			if within == 0 || across == 0 || off == 0 || unlocates == 0 || relocates == 0 || S > 1 && drained == 0 {
				t.Fatalf("churn too gentle: %d within, %d across, %d off the grid, %d unlocates, %d relocates, %d drained",
					within, across, off, unlocates, relocates, drained)
			}
		})
	}
}
