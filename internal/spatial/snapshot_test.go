package spatial

import (
	"math"
	"math/rand"
	"testing"
)

// snapshotWorld captures everything a reader can observe through a snapshot,
// for comparing epochs.
type snapshotWorld struct {
	numLocated int
	pts        map[int32]Point
	located    map[int32]bool
	leafOf     map[int32]int32
	members    map[int32][]int32
	counts     [][]int32
}

func captureWorld(s *Snapshot) snapshotWorld {
	w := snapshotWorld{
		numLocated: s.NumLocated(),
		pts:        map[int32]Point{},
		located:    map[int32]bool{},
		leafOf:     map[int32]int32{},
		members:    map[int32][]int32{},
	}
	for id := int32(0); id < int32(s.NumUsers()); id++ {
		w.pts[id] = s.Point(id)
		w.located[id] = s.Located(id)
		w.leafOf[id] = s.LeafOf(id)
	}
	layout := s.Layout()
	for idx := int32(0); idx < int32(layout.NumCells(layout.LeafLevel())); idx++ {
		w.members[idx] = append([]int32(nil), s.CellUsers(idx)...)
	}
	for l := 0; l < layout.Levels; l++ {
		row := make([]int32, layout.NumCells(l))
		for idx := range row {
			row[idx] = s.CountAt(l, int32(idx))
		}
		w.counts = append(w.counts, row)
	}
	return w
}

func worldsEqual(a, b snapshotWorld) bool {
	if a.numLocated != b.numLocated {
		return false
	}
	for id, p := range a.pts {
		if b.pts[id] != p || b.located[id] != a.located[id] || b.leafOf[id] != a.leafOf[id] {
			return false
		}
	}
	for idx, m := range a.members {
		bm := b.members[idx]
		if len(m) != len(bm) {
			return false
		}
		for i := range m {
			if m[i] != bm[i] {
				return false
			}
		}
	}
	for l := range a.counts {
		for idx := range a.counts[l] {
			if a.counts[l][idx] != b.counts[l][idx] {
				return false
			}
		}
	}
	return true
}

// TestSnapshotIsolation is the core copy-on-write contract: a snapshot
// captured before a batch of mutations is bit-for-bit unchanged after the
// mutations publish, while the new snapshot reflects them.
func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, _, _ := mkGrid(t, rng, 2500, 5, 2, 0.2) // >1 page of users
	old := g.Snapshot()
	before := captureWorld(old)

	for step := 0; step < 800; step++ {
		id := int32(rng.Intn(2500))
		switch rng.Intn(3) {
		case 0:
			g.Move(id, Point{rng.Float64() * 100, rng.Float64() * 100})
		case 1:
			g.RemoveLocation(id)
		case 2:
			g.SetLocated(id, Point{rng.Float64() * 100, rng.Float64() * 100})
		}
	}
	// Unpublished mutations must be invisible to snapshot readers.
	if g.Snapshot() != old {
		t.Fatal("snapshot pointer changed before Publish")
	}
	if !worldsEqual(before, captureWorld(g.Snapshot())) {
		t.Fatal("unpublished mutations leaked into the published snapshot")
	}

	cur := g.Publish()
	if cur == old {
		t.Fatal("Publish did not install a new snapshot")
	}
	if cur.Epoch() != old.Epoch()+1 {
		t.Fatalf("epoch %d after %d", cur.Epoch(), old.Epoch())
	}
	// The old epoch must be exactly what it was…
	if !worldsEqual(before, captureWorld(old)) {
		t.Fatal("published mutations mutated the old snapshot in place")
	}
	// …and the new epoch must agree with the writer's own view.
	after := captureWorld(cur)
	if after.numLocated != g.view().NumLocated() {
		t.Fatalf("new snapshot located %d, writer sees %d", after.numLocated, g.view().NumLocated())
	}
	if worldsEqual(before, after) {
		t.Fatal("800 mutations left the world unchanged (test is vacuous)")
	}
}

// TestSnapshotIsolationAcrossManyEpochs holds snapshots from several epochs
// simultaneously and checks each stays frozen while later epochs change.
func TestSnapshotIsolationAcrossManyEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g, _, _ := mkGrid(t, rng, 600, 4, 2, 0)
	type epoch struct {
		snap  *Snapshot
		world snapshotWorld
	}
	var epochs []epoch
	for e := 0; e < 8; e++ {
		for step := 0; step < 40; step++ {
			g.Move(int32(rng.Intn(600)), Point{rng.Float64() * 100, rng.Float64() * 100})
		}
		s := g.Publish()
		epochs = append(epochs, epoch{s, captureWorld(s)})
	}
	for i, e := range epochs {
		if !worldsEqual(e.world, captureWorld(e.snap)) {
			t.Fatalf("epoch %d changed after later publishes", i)
		}
	}
	// NN results over an old epoch must match its frozen world, not the
	// current one.
	first := epochs[0]
	q := Point{50, 50}
	it := first.snap.NewNN(q)
	for {
		id, d, ok := it.Next()
		if !ok {
			break
		}
		if got := first.world.pts[id].Dist(q); math.Abs(got-d) > 1e-12 {
			t.Fatalf("NN over old epoch used live coordinates for user %d", id)
		}
	}
}

// TestPublishNoopWhenClean verifies Publish without mutations keeps the same
// epoch (no spurious version churn).
func TestPublishNoopWhenClean(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, _, _ := mkGrid(t, rng, 100, 4, 1, 0)
	s1 := g.Publish()
	s2 := g.Publish()
	if s1 != s2 {
		t.Fatal("clean Publish installed a new snapshot")
	}
	g.Move(3, Point{1, 1})
	if g.Publish() == s1 {
		t.Fatal("dirty Publish returned the old snapshot")
	}
}

// TestWriterViewReadYourWrites: the Grid's own accessors see unpublished
// mutations (single-threaded convenience), snapshots do not.
func TestWriterViewReadYourWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g, _, _ := mkGrid(t, rng, 50, 4, 1, 0)
	old := g.Snapshot()
	before := old.Point(7)
	target := Point{99, 99}
	g.Move(7, target)
	if g.view().Point(7) != target {
		t.Fatal("writer view missed its own move")
	}
	if g.Snapshot().Point(7) != before {
		t.Fatal("snapshot saw unpublished move")
	}
	g.Publish()
	if g.Snapshot().Point(7) != target {
		t.Fatal("published move invisible")
	}
}
