package aggindex

import (
	"math"
	"math/rand"
	"testing"

	"ssrq/internal/graph"
	"ssrq/internal/landmark"
	"ssrq/internal/spatial"
)

type fixture struct {
	g       *graph.Graph
	lm      *landmark.Set
	grid    *spatial.Grid
	ix      *Index
	sub     *Social
	pts     []spatial.Point
	located []bool
}

// index builds an index over grid and a fresh substrate on g and lm.
func index(t *testing.T, g *graph.Graph, lm *landmark.Set, grid *spatial.Grid, cfg Config) (*Index, *Social) {
	t.Helper()
	sub, err := NewSocialSubstrate(lm, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewShared(grid, sub)
	if err != nil {
		t.Fatal(err)
	}
	return ix, sub
}

// apply applies ops to the fixture's substrate and index as one write batch.
func (f *fixture) apply(ops ...Op) { Apply(f.sub, ops, []*Index{f.ix}, [][]Op{ops}) }

func mkFixture(t *testing.T, rng *rand.Rand, n, m, s, levels int, unlocated float64, disconnect bool) *fixture {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if disconnect && v == n/2 {
			continue // split into two components
		}
		u := rng.Intn(v)
		if disconnect && (u < n/2) != (v < n/2) {
			u = v - 1 // keep edges within the half
		}
		if u == v {
			continue
		}
		_ = b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0.1+rng.Float64()*4.9)
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if disconnect && (u < n/2) != (v < n/2) {
			continue
		}
		_ = b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0.1+rng.Float64()*4.9)
	}
	g := b.MustBuild()
	lm, err := landmark.Select(g, m, landmark.Farthest, 42)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]spatial.Point, n)
	located := make([]bool, n)
	for i := range pts {
		pts[i] = spatial.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		located[i] = rng.Float64() >= unlocated
	}
	layout, err := spatial.NewLayout(spatial.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, s, levels)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := spatial.NewGrid(layout, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{g: g, lm: lm, grid: grid, pts: pts, located: located}
	f.ix, f.sub = index(t, g, lm, grid, Config{})
	return f
}

// verifyInvariants checks that every cell's summary exactly brackets its
// members at every level.
func verifyInvariants(t *testing.T, f *fixture) {
	t.Helper()
	layout := f.grid.Layout()
	m := f.lm.M()
	leaf := layout.LeafLevel()
	for level := 0; level <= leaf; level++ {
		for idx := int32(0); idx < int32(layout.NumCells(level)); idx++ {
			// Gather members under this cell by scanning descendant leaves.
			var members []int32
			var walk func(l int, i int32)
			walk = func(l int, i int32) {
				if l == leaf {
					members = append(members, f.grid.CellUsers(i)...)
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
				if got := float64(f.ix.row(level, idx)[j]); !sameBits(got, lo) {
					t.Fatalf("level %d cell %d lm %d: min %v, want %v", level, idx, j, got, lo)
				}
				if got := float64(f.ix.row(level, idx)[f.ix.m+j]); !sameBits(got, hi) {
					t.Fatalf("level %d cell %d lm %d: max %v, want %v", level, idx, j, got, hi)
				}
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewShared(nil, nil); err == nil {
		t.Fatal("nil arguments accepted")
	}
}

func TestBuildSummariesBracketMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := mkFixture(t, rng, 200, 4, 4, 2, 0.2, false)
	verifyInvariants(t, f)
}

func TestSocialLowerBoundIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		f := mkFixture(t, rng, 120, 1+rng.Intn(5), 3+rng.Intn(4), 1+rng.Intn(2), 0.1, trial%2 == 1)
		layout := f.grid.Layout()
		leaf := layout.LeafLevel()
		for probe := 0; probe < 10; probe++ {
			q := graph.VertexID(rng.Intn(120))
			qvec := f.lm.VertexVector(q)
			dist := f.g.DistancesFrom(q)
			for idx := int32(0); idx < int32(layout.NumCells(leaf)); idx++ {
				members := f.grid.CellUsers(idx)
				bound := lemma2(f.ix.row(leaf, idx), f.ix.m, qvec)
				for _, u := range members {
					if bound > dist[u]+1e-9 {
						t.Fatalf("trial %d: bound %v > true %v for user %d in cell %d",
							trial, bound, dist[u], u, idx)
					}
				}
				if len(members) == 0 && bound != graph.Infinity {
					t.Fatalf("empty cell bound = %v, want +Inf", bound)
				}
			}
		}
	}
}

func TestSocialLowerBoundInternalLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := mkFixture(t, rng, 150, 3, 4, 2, 0, false)
	layout := f.grid.Layout()
	q := graph.VertexID(17)
	qvec := f.lm.VertexVector(q)
	dist := f.g.DistancesFrom(q)
	for idx := int32(0); idx < int32(layout.NumCells(0)); idx++ {
		bound := lemma2(f.ix.row(0, idx), f.ix.m, qvec)
		for _, c := range layout.ChildIndices(0, idx, nil) {
			for _, u := range f.grid.CellUsers(c) {
				if bound > dist[u]+1e-9 {
					t.Fatalf("internal bound %v > true %v for user %d", bound, dist[u], u)
				}
			}
		}
	}
}

func TestPaperExampleFigure4(t *testing.T) {
	// Reconstruction of the paper's Fig. 4 scenario: one landmark, cell with
	// three users at landmark distances 4, 3, 1 → m̂=4, m̌=1. Query at
	// landmark distance 0 (the landmark itself) gives pˇ = m̌ − 0 = 1.
	b := graph.NewBuilder(5)
	// Star-ish graph: landmark is vertex 0; users 1..3 in the cell at
	// distances 4, 3, 1; vertex 4 elsewhere.
	_ = b.AddEdge(0, 1, 4)
	_ = b.AddEdge(0, 2, 3)
	_ = b.AddEdge(0, 3, 1)
	_ = b.AddEdge(0, 4, 2)
	g := b.MustBuild()
	lm, err := landmark.Select(g, 1, landmark.HighestDegree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Vertices()[0] != 0 {
		t.Fatalf("expected hub landmark 0, got %d", lm.Vertices()[0])
	}
	pts := []spatial.Point{{X: 90, Y: 90}, {X: 10, Y: 10}, {X: 12, Y: 12}, {X: 14, Y: 14}, {X: 80, Y: 80}}
	located := []bool{true, true, true, true, true}
	layout, _ := spatial.NewLayout(spatial.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 4, 1)
	grid, _ := spatial.NewGrid(layout, pts, located)
	ix, _ := index(t, g, lm, grid, Config{})
	leafIdx := layout.CellIndex(0, pts[1])
	if got := ix.row(0, leafIdx)[0]; got != 1 {
		t.Fatalf("m̌ = %v, want 1", got)
	}
	if got := ix.row(0, leafIdx)[ix.m]; got != 4 {
		t.Fatalf("m̂ = %v, want 4", got)
	}
	qvec := lm.VertexVector(0)
	if got := lemma2(ix.row(0, leafIdx), ix.m, qvec); got != 1 {
		t.Fatalf("pˇ = %v, want 1", got)
	}
}

func TestMoveMaintainsSummaries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := mkFixture(t, rng, 150, 4, 4, 2, 0.2, false)
	for step := 0; step < 500; step++ {
		id := int32(rng.Intn(150))
		switch rng.Intn(4) {
		case 0, 1:
			f.apply(Op{ID: id, To: spatial.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}})
		case 2:
			f.apply(Op{ID: id, Remove: true})
		case 3:
			f.apply(Op{ID: id, To: spatial.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}})
		}
	}
	verifyInvariants(t, f)
}

func TestMoveWithinLeafSkipsMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := mkFixture(t, rng, 100, 2, 4, 1, 0, false)
	layout := f.grid.Layout()
	id := int32(7)
	leaf := f.grid.LeafOf(id)
	r := layout.CellRect(layout.LeafLevel(), leaf)
	center := spatial.Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
	f.apply(Op{ID: id, To: center})
	if f.grid.LeafOf(id) != leaf {
		t.Fatal("intra-cell move changed leaf")
	}
	if f.ix.Snapshot().Grid().Point(id) != center {
		t.Fatal("intra-cell move lost coordinates")
	}
	verifyInvariants(t, f)
}

func TestRemoveResponsibleMemberNarrowsSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := mkFixture(t, rng, 100, 2, 4, 1, 0, false)
	layout := f.grid.Layout()
	leafLevel := layout.LeafLevel()
	// Find a leaf with ≥2 members and identify the max-responsible user for
	// landmark 0.
	for idx := int32(0); idx < int32(layout.NumCells(leafLevel)); idx++ {
		users := f.grid.CellUsers(idx)
		if len(users) < 2 {
			continue
		}
		maxU, maxD := int32(-1), math.Inf(-1)
		for _, u := range users {
			if d := f.lm.VertexRow(u)[0]; d > maxD {
				maxU, maxD = u, d
			}
		}
		f.apply(Op{ID: maxU, Remove: true})
		verifyInvariants(t, f)
		return
	}
	t.Skip("no multi-member leaf in fixture")
}

func TestUnlocatedUsersAbsentFromSummaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := mkFixture(t, rng, 120, 3, 4, 2, 0.5, false)
	verifyInvariants(t, f)
	// Unlocate everything: all summaries must become (+Inf, −Inf).
	for id := int32(0); id < 120; id++ {
		f.apply(Op{ID: id, Remove: true})
	}
	layout := f.grid.Layout()
	for level := 0; level < layout.Levels; level++ {
		for idx := int32(0); idx < int32(layout.NumCells(level)); idx++ {
			for j := 0; j < f.lm.M(); j++ {
				if !math.IsInf(float64(f.ix.row(level, idx)[j]), 1) {
					t.Fatalf("emptied cell has finite min summary")
				}
			}
		}
	}
}
