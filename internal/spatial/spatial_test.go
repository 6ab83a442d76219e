package spatial

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestRectMinDist(t *testing.T) {
	r := Rect{1, 1, 3, 3}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{2, 2}, 0},              // inside
		{Point{1, 1}, 0},              // corner
		{Point{0, 2}, 1},              // left
		{Point{2, 5}, 2},              // above
		{Point{0, 0}, math.Sqrt2},     // diagonal corner
		{Point{5, 5}, 2 * math.Sqrt2}, // far diagonal
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectMaxDistAndDiagonal(t *testing.T) {
	r := Rect{0, 0, 3, 4}
	if got := r.Diagonal(); got != 5 {
		t.Fatalf("Diagonal = %v", got)
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	r, ok := BoundingRect(pts, nil)
	if !ok || r != (Rect{-2, -1, 4, 5}) {
		t.Fatalf("BoundingRect = %+v, %v", r, ok)
	}
	located := []bool{false, true, true}
	r, ok = BoundingRect(pts, located)
	if !ok || r != (Rect{-2, -1, 4, 3}) {
		t.Fatalf("filtered BoundingRect = %+v, %v", r, ok)
	}
	if _, ok := BoundingRect(nil, nil); ok {
		t.Fatal("empty BoundingRect reported ok")
	}
	if _, ok := BoundingRect(pts, []bool{false, false, false}); ok {
		t.Fatal("all-unlocated BoundingRect reported ok")
	}
}

func TestLayoutValidation(t *testing.T) {
	good := Rect{0, 0, 1, 1}
	if _, err := NewLayout(good, 1, 2); err == nil {
		t.Fatal("s=1 accepted")
	}
	if _, err := NewLayout(good, 4, 0); err == nil {
		t.Fatal("levels=0 accepted")
	}
	if _, err := NewLayout(good, 4, 5); err == nil {
		t.Fatal("levels=5 accepted")
	}
	if _, err := NewLayout(Rect{0, 0, 0, 1}, 4, 2); err == nil {
		t.Fatal("degenerate bounds accepted")
	}
}

func TestLayoutGeometry(t *testing.T) {
	l, err := NewLayout(Rect{0, 0, 100, 100}, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Dim(0) != 10 || l.Dim(1) != 100 {
		t.Fatalf("dims = %d, %d", l.Dim(0), l.Dim(1))
	}
	if l.LeafLevel() != 1 {
		t.Fatalf("LeafLevel = %d", l.LeafLevel())
	}
	// Point (5.5, 12.3) is in top cell (0,1) = idx 10, leaf cell (5,12) = idx 1205.
	p := Point{5.5, 12.3}
	if got := l.CellIndex(0, p); got != 10 {
		t.Fatalf("top CellIndex = %d", got)
	}
	if got := l.CellIndex(1, p); got != 1205 {
		t.Fatalf("leaf CellIndex = %d", got)
	}
	if got := l.ParentIndex(1, 1205); got != 10 {
		t.Fatalf("ParentIndex = %d", got)
	}
	r := l.CellRect(1, 1205)
	if !r.Contains(p) {
		t.Fatalf("CellRect %+v does not contain %v", r, p)
	}
	if math.Abs(r.Width()-1) > 1e-12 || math.Abs(r.Height()-1) > 1e-12 {
		t.Fatalf("leaf cell size %vx%v, want 1x1", r.Width(), r.Height())
	}
}

func TestLayoutClampsOutOfBounds(t *testing.T) {
	l, _ := NewLayout(Rect{0, 0, 10, 10}, 4, 2)
	leaf := l.LeafLevel()
	dim := l.Dim(leaf)
	if got := l.CellIndex(leaf, Point{-5, -5}); got != 0 {
		t.Fatalf("clamp low = %d", got)
	}
	if got := l.CellIndex(leaf, Point{15, 15}); got != int32(dim*dim-1) {
		t.Fatalf("clamp high = %d", got)
	}
	// Max boundary maps to the last cell, not off the end.
	if got := l.CellIndex(leaf, Point{10, 10}); got != int32(dim*dim-1) {
		t.Fatalf("max corner = %d", got)
	}
}

func TestLayoutChildrenPartitionParent(t *testing.T) {
	l, _ := NewLayout(Rect{0, 0, 64, 64}, 4, 3)
	for level := 0; level < l.LeafLevel(); level++ {
		idx := int32(l.NumCells(level) / 2)
		parent := l.CellRect(level, idx)
		kids := l.ChildIndices(level, idx, nil)
		if len(kids) != l.S*l.S {
			t.Fatalf("level %d: %d children", level, len(kids))
		}
		area := 0.0
		for _, c := range kids {
			cr := l.CellRect(level+1, c)
			area += cr.Width() * cr.Height()
			if l.ParentIndex(level+1, c) != idx {
				t.Fatalf("child %d maps to wrong parent", c)
			}
		}
		if math.Abs(area-parent.Width()*parent.Height()) > 1e-6 {
			t.Fatalf("children area %v != parent area %v", area, parent.Width()*parent.Height())
		}
	}
}

func mkGrid(t *testing.T, rng *rand.Rand, n int, s, levels int, unlocatedFrac float64) (*Grid, []Point, []bool) {
	t.Helper()
	pts := make([]Point, n)
	located := make([]bool, n)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
		located[i] = rng.Float64() >= unlocatedFrac
	}
	l, err := NewLayout(Rect{0, 0, 100, 100}, s, levels)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(l, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	return g, pts, located
}

func TestGridCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, _, located := mkGrid(t, rng, 500, 5, 2, 0.2)
	want := 0
	for _, l := range located {
		if l {
			want++
		}
	}
	if g.view().NumLocated() != want {
		t.Fatalf("NumLocated = %d, want %d", g.view().NumLocated(), want)
	}
	// Top-level counts must sum to the located count.
	var sum int32
	for idx := int32(0); idx < int32(g.Layout().NumCells(0)); idx++ {
		sum += g.view().CountAt(0, idx)
	}
	if int(sum) != want {
		t.Fatalf("top-level count sum = %d, want %d", sum, want)
	}
}

func TestNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(300)
		g, pts, located := mkGrid(t, rng, n, 3+rng.Intn(8), 1+rng.Intn(3), 0.15)
		q := Point{rng.Float64() * 100, rng.Float64() * 100}

		type ref struct {
			id int32
			d  float64
		}
		var want []ref
		for i := range pts {
			if located[i] {
				want = append(want, ref{int32(i), pts[i].Dist(q)})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].d != want[j].d {
				return want[i].d < want[j].d
			}
			return want[i].id < want[j].id
		})

		it := g.view().NewNN(q)
		for i, w := range want {
			id, d, ok := it.Next()
			if !ok {
				t.Fatalf("trial %d: iterator exhausted at %d/%d", trial, i, len(want))
			}
			if id != w.id || math.Abs(d-w.d) > 1e-9 {
				t.Fatalf("trial %d pos %d: got (%d,%v), want (%d,%v)", trial, i, id, d, w.id, w.d)
			}
		}
		if _, _, ok := it.Next(); ok {
			t.Fatalf("trial %d: iterator returned extra user", trial)
		}
	}
}

func TestKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, pts, located := mkGrid(t, rng, 200, 6, 2, 0)
	_ = located
	q := Point{50, 50}
	res := g.KNN(q, 10, func(id int32) bool { return id == 7 })
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("kNN results not sorted")
		}
	}
	for _, r := range res {
		if r.ID == 7 {
			t.Fatal("skipped user returned")
		}
		if math.Abs(r.Dist-pts[r.ID].Dist(q)) > 1e-12 {
			t.Fatal("reported distance wrong")
		}
	}
	// k larger than population.
	all := g.KNN(q, 10_000, nil)
	if len(all) != g.view().NumLocated() {
		t.Fatalf("oversized k returned %d, want %d", len(all), g.view().NumLocated())
	}
}

func TestGridMove(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, _, _ := mkGrid(t, rng, 100, 4, 2, 0)
	id := int32(5)
	g.Move(id, Point{99, 99})
	if g.view().Point(id) != (Point{99, 99}) {
		t.Fatal("Move did not update the stored point")
	}
	res := g.KNN(Point{99.5, 99.5}, 1, nil)
	if len(res) != 1 || res[0].ID != id {
		t.Fatalf("moved user not found near target: %+v", res)
	}
	// Move within the same leaf cell must also update the point.
	before := g.view().Point(id)
	g.Move(id, Point{before.X - 1e-6, before.Y})
	if g.view().Point(id).X >= before.X {
		t.Fatal("intra-cell move lost")
	}
}

func TestGridLocateUnlocateCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _, _ := mkGrid(t, rng, 50, 4, 2, 0)
	id := int32(10)
	n0 := g.view().NumLocated()
	g.RemoveLocation(id)
	if g.view().NumLocated() != n0-1 || g.view().Located(id) {
		t.Fatal("RemoveLocation failed")
	}
	g.RemoveLocation(id) // idempotent
	if g.view().NumLocated() != n0-1 {
		t.Fatal("double RemoveLocation changed counts")
	}
	g.SetLocated(id, Point{1, 1})
	if g.view().NumLocated() != n0 || !g.view().Located(id) {
		t.Fatal("SetLocated failed")
	}
	res := g.KNN(Point{1, 1}, 1, nil)
	if res[0].ID != id {
		t.Fatalf("relocated user not nearest: %+v", res)
	}
	// Move on an unlocated user acts as SetLocated.
	g.RemoveLocation(id)
	g.Move(id, Point{2, 2})
	if !g.view().Located(id) {
		t.Fatal("Move on unlocated user did not locate")
	}
}

func TestGridCountsStayConsistentUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, _, _ := mkGrid(t, rng, 300, 5, 3, 0.3)
	for step := 0; step < 2000; step++ {
		id := int32(rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			g.Move(id, Point{rng.Float64() * 100, rng.Float64() * 100})
		case 1:
			g.RemoveLocation(id)
		case 2:
			g.SetLocated(id, Point{rng.Float64() * 100, rng.Float64() * 100})
		}
	}
	// Invariant: counts at every level sum to NumLocated, and leaf
	// membership matches the located flags.
	for l := 0; l < g.Layout().Levels; l++ {
		var sum int32
		for idx := int32(0); idx < int32(g.Layout().NumCells(l)); idx++ {
			sum += g.view().CountAt(l, idx)
		}
		if int(sum) != g.view().NumLocated() {
			t.Fatalf("level %d count sum %d != located %d", l, sum, g.view().NumLocated())
		}
	}
	members := 0
	for idx := int32(0); idx < int32(g.Layout().NumCells(g.Layout().LeafLevel())); idx++ {
		for _, u := range g.CellUsers(idx) {
			members++
			if !g.view().Located(u) {
				t.Fatalf("unlocated user %d present in grid", u)
			}
			if g.Layout().CellIndex(g.Layout().LeafLevel(), g.view().Point(u)) != idx {
				t.Fatalf("user %d in wrong leaf", u)
			}
		}
	}
	if members != g.view().NumLocated() {
		t.Fatalf("leaf membership %d != located %d", members, g.view().NumLocated())
	}
}

func TestNNOnMismatchedSlices(t *testing.T) {
	l, _ := NewLayout(Rect{0, 0, 1, 1}, 2, 1)
	if _, err := NewGrid(l, make([]Point, 3), make([]bool, 2)); err == nil {
		t.Fatal("mismatched slices accepted")
	}
}
