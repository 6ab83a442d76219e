package spatial

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMinDistQuickProperty(t *testing.T) {
	// MinDist(p, r) must lower-bound the distance from p to any point
	// inside r (sampled).
	squash := func(x float64) float64 { // map arbitrary floats into [-100, 100]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 100)
	}
	check := func(px, py, ax, ay, bx, by, sx, sy float64) bool {
		px, py = squash(px), squash(py)
		ax, ay, bx, by = squash(ax), squash(ay), squash(bx), squash(by)
		r := Rect{math.Min(ax, bx), math.Min(ay, by), math.Max(ax, bx), math.Max(ay, by)}
		p := Point{px, py}
		// Sample point inside r via fractional coordinates.
		fx, fy := math.Abs(math.Mod(sx, 1)), math.Abs(math.Mod(sy, 1))
		in := Point{r.MinX + fx*(r.MaxX-r.MinX), r.MinY + fy*(r.MaxY-r.MinY)}
		return r.MinDist(p) <= p.Dist(in)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNNDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, _, _ := mkGrid(t, rng, 300, 5, 2, 0.1)
	q := Point{33, 66}
	var first []int32
	for run := 0; run < 3; run++ {
		it := g.view().NewNN(q)
		var order []int32
		for {
			id, _, ok := it.Next()
			if !ok {
				break
			}
			order = append(order, id)
		}
		if first == nil {
			first = order
			continue
		}
		if len(order) != len(first) {
			t.Fatal("length varies")
		}
		for i := range order {
			if order[i] != first[i] {
				t.Fatalf("order differs at %d", i)
			}
		}
	}
}

func TestNNAllSamePoint(t *testing.T) {
	// Heavy ties: every user at the same spot must stream in ID order.
	pts := make([]Point, 50)
	located := make([]bool, 50)
	for i := range pts {
		pts[i] = Point{1, 1}
		located[i] = true
	}
	l, _ := NewLayout(Rect{0, 0, 2, 2}, 4, 2)
	g, err := NewGrid(l, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	it := g.view().NewNN(Point{1, 1})
	for want := int32(0); want < 50; want++ {
		id, d, ok := it.Next()
		if !ok || id != want || d != 0 {
			t.Fatalf("got (%d,%v,%v), want (%d,0,true)", id, d, ok, want)
		}
	}
}

func TestGridSingleLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, pts, located := mkGrid(t, rng, 120, 8, 1, 0.2)
	q := Point{10, 90}
	it := g.view().NewNN(q)
	prev := -1.0
	count := 0
	for {
		id, d, ok := it.Next()
		if !ok {
			break
		}
		if d < prev {
			t.Fatal("order violated on single-level grid")
		}
		if !located[id] {
			t.Fatal("unlocated user streamed")
		}
		if math.Abs(d-pts[id].Dist(q)) > 1e-12 {
			t.Fatal("distance wrong")
		}
		prev = d
		count++
	}
	if count != g.view().NumLocated() {
		t.Fatalf("streamed %d of %d", count, g.view().NumLocated())
	}
}
