package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	old := g.published.Load()
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
	if g.published.Load() != old {
		t.Fatal("snapshot pointer changed before Publish")
	}
	if !worldsEqual(before, captureWorld(g.published.Load())) {
		t.Fatal("unpublished mutations leaked into the published snapshot")
	}

	cur := g.Publish()
	if cur == old {
		t.Fatal("Publish did not install a new snapshot")
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
	old := g.published.Load()
	before := old.Point(7)
	target := Point{99, 99}
	g.Move(7, target)
	if g.view().Point(7) != target {
		t.Fatal("writer view missed its own move")
	}
	if g.published.Load().Point(7) != before {
		t.Fatal("snapshot saw unpublished move")
	}
	g.Publish()
	if g.published.Load().Point(7) != target {
		t.Fatal("published move invisible")
	}
}

// pagesInUse returns the page indexes of a spine whose slot is not the empty
// page, failing when two slots share a page.
func pagesInUse[P any](t *testing.T, spine []*P, empty *P) map[int32]bool {
	t.Helper()
	used, seen := map[int32]bool{}, map[*P]bool{}
	for pg, p := range spine {
		if p == empty {
			continue
		}
		if seen[p] {
			t.Fatalf("page %d shares its storage with another slot", pg)
		}
		used[int32(pg)], seen[p] = true, true
	}
	return used
}

// aliasedPointPages returns the point pages of s that are still their
// 16-point chunk of pts, the slice the grid was built from.
func aliasedPointPages(s *Snapshot, pts []Point) map[int32]bool {
	got := map[int32]bool{}
	for pg, p := range s.pts {
		lo := pg << ptPageShift
		if lo+ptPageSize <= len(pts) && p == (*ptPage)(pts[lo:lo+ptPageSize]) {
			got[int32(pg)] = true
		}
	}
	return got
}

// checkUserPages fails unless the point pages of s aliasing pts are exactly
// the full pages holding no user in written (users whose point was written),
// and the located-bit pages of s off the empty page are exactly the pages
// holding a user in everLocated.
func checkUserPages(t *testing.T, step string, s *Snapshot, pts []Point, written, everLocated []int32) {
	t.Helper()
	wantPts, wantLoc := map[int32]bool{}, map[int32]bool{}
	for pg := int32(0); pg < int32(len(pts)>>ptPageShift); pg++ {
		wantPts[pg] = true
	}
	for _, id := range written {
		delete(wantPts, id>>ptPageShift)
	}
	for _, id := range everLocated {
		wantLoc[id>>locPageShift] = true
	}
	if got := aliasedPointPages(s, pts); !reflect.DeepEqual(got, wantPts) {
		t.Fatalf("%s: point pages aliasing the construction slice %v, want %v", step, got, wantPts)
	}
	if got := pagesInUse(t, s.loc, emptyLocated); !reflect.DeepEqual(got, wantLoc) {
		t.Fatalf("%s: located-bit pages %v, want %v", step, got, wantLoc)
	}
}

// emptyPagesIntact reports whether the shared empty pages still read as
// unlocated users, empty buckets and zero counts.
func emptyPagesIntact() bool {
	if *emptyLocated != (locPage{}) {
		return false
	}
	for _, b := range emptyBuckets {
		if b != nil {
			return false
		}
	}
	return *emptyCounts == cellPage[int32]{}
}

// TestCellPagesFollowOccupancy: a grid whose users crowd into a few known
// leaves allocates exactly the bucket and count pages that cover those leaves
// and their ancestors; every other slot is the shared empty page. Its point
// pages are exactly the full chunks of the construction slice less the
// pages of moved users, and its located-bit pages exactly the pages of users
// ever located. Churn that moves users into empty regions and empties cells
// copies the pages it writes and never writes the empty pages themselves.
func TestCellPagesFollowOccupancy(t *testing.T) {
	layout, err := NewLayout(Rect{0, 0, 100, 100}, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	leafLevel := layout.LeafLevel()
	leaves := []int32{0, 1, 57, 4321, 9999} // 0 and 1 share a bucket page
	// Three located-bit pages: the first holds the located users, churn
	// reaches the second, and the third stays the empty page.
	const n = 3 * locPageSize
	pts, located := make([]Point, n), make([]bool, n)
	for id := range pts {
		r := layout.CellRect(leafLevel, leaves[id%len(leaves)])
		pts[id] = Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
		located[id] = id%7 != 0 && id < locPageSize
	}
	g, err := NewGrid(layout, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	s := g.published.Load()
	want := make([]map[int32]bool, layout.Levels)
	for l := range want {
		want[l] = map[int32]bool{}
	}
	for _, leaf := range leaves {
		idx := leaf
		want[leafLevel][idx>>cellPageShift] = true
		for l := leafLevel; l > 0; l-- {
			idx = layout.ParentIndex(l, idx)
			want[l-1][idx>>cellPageShift] = true
		}
	}
	if got := pagesInUse(t, s.leaves, emptyBuckets); !reflect.DeepEqual(got, want[leafLevel]) {
		t.Fatalf("bucket pages %v, want %v", got, want[leafLevel])
	}
	for l := 0; l < leafLevel; l++ {
		if got := pagesInUse(t, s.counts[l], emptyCounts); !reflect.DeepEqual(got, want[l]) {
			t.Fatalf("level %d: count pages %v, want %v", l, got, want[l])
		}
	}
	var moved, everLocated []int32
	for id := range located {
		if located[id] {
			everLocated = append(everLocated, int32(id))
		}
	}
	checkUserPages(t, "construction", s, pts, moved, everLocated)

	rng := rand.New(rand.NewSource(45))
	for round := 0; round < 40; round++ {
		old := g.published.Load()
		before := captureWorld(old)
		for step := 0; step < 25; step++ {
			id := int32(rng.Intn(2 * locPageSize))
			switch rng.Intn(4) {
			case 0:
				g.RemoveLocation(id)
			case 1: // back into a crowded leaf, emptying another now and then
				r := layout.CellRect(leafLevel, leaves[rng.Intn(len(leaves))])
				g.Move(id, Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2})
				moved, everLocated = append(moved, id), append(everLocated, id)
			default: // anywhere, mostly into empty leaves
				g.Move(id, Point{rng.Float64() * 100, rng.Float64() * 100})
				moved, everLocated = append(moved, id), append(everLocated, id)
			}
		}
		cur := g.Publish()
		checkUserPages(t, fmt.Sprintf("round %d", round), cur, pts, moved, everLocated)
		if !worldsEqual(before, captureWorld(old)) {
			t.Fatalf("round %d: a published epoch changed", round)
		}
		if !emptyPagesIntact() {
			t.Fatalf("round %d: an empty page was written", round)
		}
		if len(pagesInUse(t, cur.leaves, emptyBuckets)) == len(cur.leaves) {
			t.Fatalf("round %d: no bucket page left empty", round)
		}
	}
}

// TestPointPagesAliasUntilWritten pins the no-write-through contract of the
// aliased point pages: a grid's full point pages are the caller's slice
// until a user on them moves, a write copies the page instead of writing
// through, and no published epoch ever changes.
func TestPointPagesAliasUntilWritten(t *testing.T) {
	layout, err := NewLayout(Rect{0, 0, 100, 100}, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	leafLevel := layout.LeafLevel()
	const n = 40*ptPageSize + 5 // a short tail page
	rng := rand.New(rand.NewSource(48))
	pts, located := make([]Point, n), make([]bool, n)
	for id := range pts {
		pts[id] = Point{rng.Float64() * 100, rng.Float64() * 100}
		// Located-bit page 1 holds no located user, so it stays the empty
		// page.
		located[id] = id%5 != 0 && id>>locPageShift != 1
	}
	clone := slices.Clone(pts)
	g, err := NewGrid(layout, pts, located)
	if err != nil {
		t.Fatal(err)
	}

	var written, everLocated []int32
	for id := range located {
		if located[id] {
			everLocated = append(everLocated, int32(id))
		}
	}
	type epoch struct {
		snap  *Snapshot
		world snapshotWorld
	}
	epochs := []epoch{{g.published.Load(), captureWorld(g.published.Load())}}
	check := func(step string) {
		t.Helper()
		s := g.published.Load()
		checkUserPages(t, step, s, pts, written, everLocated)
		if tail := s.pts[len(s.pts)-1]; &tail[0] == &pts[n-n%ptPageSize] {
			t.Fatalf("%s: the tail point page aliases the slice", step)
		}
	}
	check("construction")

	center := func(leaf int32) Point {
		r := layout.CellRect(leafLevel, leaf)
		return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
	}
	// One write per point page: a, b and d are located and c is not; they
	// sit on four different point pages, d's is never written, and c's
	// located-bit page is the empty page until c is located.
	const a, b, c, d = 17, 101, 600, 401
	leafA, leafB := g.LeafOf(a), g.LeafOf(b)
	steps := []struct {
		name  string
		apply func()
		wrote []int32
	}{
		{"move inside a leaf", func() { g.Move(a, center(leafA)) }, []int32{a}},
		{"move across leaves", func() { g.Move(b, center((leafB+1)%int32(layout.NumCells(leafLevel)))) }, []int32{b}},
		{"SetLocated", func() { g.SetLocated(c, Point{1, 1}) }, []int32{c}},
		{"RemoveLocation", func() { g.RemoveLocation(d) }, nil},
	}
	for _, st := range steps {
		st.apply()
		epochs = append(epochs, epoch{g.Publish(), captureWorld(g.published.Load())})
		written = append(written, st.wrote...)
		everLocated = append(everLocated, st.wrote...)
		check(st.name)
	}
	if leafA < 0 || leafB < 0 || g.LeafOf(a) != leafA || g.LeafOf(b) == leafB || !g.view().Located(c) || g.view().Located(d) {
		t.Fatal("churn did not do what its steps say")
	}

	for id := range pts {
		if math.Float64bits(pts[id].X) != math.Float64bits(clone[id].X) || math.Float64bits(pts[id].Y) != math.Float64bits(clone[id].Y) {
			t.Fatalf("user %d: the construction slice reads %v, was %v", id, pts[id], clone[id])
		}
	}
	for i, e := range epochs {
		if !worldsEqual(e.world, captureWorld(e.snap)) {
			t.Fatalf("epoch %d changed after later publishes", i)
		}
	}
	for id := range clone {
		if epochs[0].snap.Point(int32(id)) != clone[id] {
			t.Fatalf("the construction epoch reads user %d at %v, want %v", id, epochs[0].snap.Point(int32(id)), clone[id])
		}
	}
	if !emptyPagesIntact() {
		t.Fatal("an empty page was written")
	}
}
