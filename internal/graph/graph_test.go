package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomGraph builds a random connected-ish undirected graph for testing.
func randomGraph(rng *rand.Rand, n int, extraEdges int) *Graph {
	b := NewBuilder(n)
	// Random spanning structure to keep most of the graph connected.
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		w := 0.1 + rng.Float64()*9.9
		if err := b.AddEdge(VertexID(u), VertexID(v), w); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		w := 0.1 + rng.Float64()*9.9
		if err := b.AddEdge(VertexID(u), VertexID(v), w); err != nil {
			panic(err)
		}
	}
	return b.MustBuild()
}

// floydWarshall is the brute-force all-pairs reference.
func floydWarshall(g *Graph) [][]float64 {
	n := g.NumVertices()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for v := 0; v < n; v++ {
		nbrs, ws := g.Neighbors(VertexID(v))
		for i, u := range nbrs {
			if ws[i] < d[v][u] {
				d[v][u] = ws[i]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if d[i][k] == math.Inf(1) {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

func almostEq(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	cases := []struct {
		u, v VertexID
		w    float64
	}{
		{0, 0, 1},           // self loop
		{0, 3, 1},           // out of range
		{-1, 1, 1},          // negative id
		{0, 1, 0},           // zero weight
		{0, 1, -2},          // negative weight
		{0, 1, math.Inf(1)}, // infinite weight
		{0, 1, math.NaN()},  // NaN weight
	}
	for _, c := range cases {
		if err := b.AddEdge(c.u, c.v, c.w); err == nil {
			t.Errorf("AddEdge(%d,%d,%v) accepted", c.u, c.v, c.w)
		}
	}
}

func TestBuilderDedupKeepsMinWeight(t *testing.T) {
	b := NewBuilder(2)
	_ = b.AddEdge(0, 1, 5)
	_ = b.AddEdge(1, 0, 2) // same undirected edge, lighter
	_ = b.AddEdge(0, 1, 7)
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 2 {
		t.Fatalf("EdgeWeight = %v,%v; want 2,true", w, ok)
	}
	if w2, _ := g.EdgeWeight(1, 0); w2 != 2 {
		t.Fatalf("reverse EdgeWeight = %v, want 2", w2)
	}
}

func TestBuilderBuildTwiceFails(t *testing.T) {
	b := NewBuilder(2)
	_ = b.AddEdge(0, 1, 1)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build succeeded")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(4).MustBuild()
	if g.NumVertices() != 4 || g.NumEdges() != 0 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	sp := g.Dijkstra(0)
	for v := 1; v < 4; v++ {
		if sp.Dist[v] != Infinity {
			t.Fatalf("vertex %d reachable in empty graph", v)
		}
	}
	if sp.Dist[0] != 0 || sp.Hops[0] != 0 {
		t.Fatal("source distance wrong")
	}
}

func TestDegreeStats(t *testing.T) {
	b := NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(0, 2, 1)
	_ = b.AddEdge(0, 3, 1)
	g := b.MustBuild()
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Fatalf("degrees: %d %d", g.Degree(0), g.Degree(1))
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("AvgDegree = %v, want 1.5", got)
	}
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		want := floydWarshall(g)
		src := VertexID(rng.Intn(n))
		sp := g.Dijkstra(src)
		for v := 0; v < n; v++ {
			if !almostEq(sp.Dist[v], want[src][v]) {
				t.Fatalf("trial %d: dist(%d,%d) = %v, want %v", trial, src, v, sp.Dist[v], want[src][v])
			}
		}
	}
}

func TestDijkstraToMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 60, 120)
	sp := g.Dijkstra(3)
	for v := 0; v < 60; v += 7 {
		if got := g.DijkstraTo(3, VertexID(v)); !almostEq(got, sp.Dist[v]) {
			t.Fatalf("DijkstraTo(3,%d) = %v, want %v", v, got, sp.Dist[v])
		}
	}
	if got := g.DijkstraTo(5, 5); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	if d := g.DijkstraTo(0, 3); d != Infinity {
		t.Fatalf("cross-component distance = %v, want +Inf", d)
	}
}

func TestPathToIsValidShortestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 50, 100)
	sp := g.Dijkstra(0)
	for v := 0; v < 50; v += 5 {
		path := sp.PathTo(VertexID(v))
		if sp.Dist[v] == Infinity {
			if path != nil {
				t.Fatalf("unreachable vertex %d has a path", v)
			}
			continue
		}
		if path[0] != 0 || path[len(path)-1] != VertexID(v) {
			t.Fatalf("path endpoints wrong: %v", path)
		}
		total := 0.0
		for i := 0; i+1 < len(path); i++ {
			w, ok := g.EdgeWeight(path[i], path[i+1])
			if !ok {
				t.Fatalf("path uses nonexistent edge (%d,%d)", path[i], path[i+1])
			}
			total += w
		}
		if !almostEq(total, sp.Dist[v]) {
			t.Fatalf("path length %v != dist %v", total, sp.Dist[v])
		}
		if int32(len(path)-1) != sp.Hops[v] {
			t.Fatalf("hops %d != path edges %d", sp.Hops[v], len(path)-1)
		}
	}
}

func TestIteratorMonotoneAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 80, 200)
	sp := g.Dijkstra(4)
	it := NewDijkstraIterator(g, 4)
	prev := -1.0
	seen := map[VertexID]bool{}
	for {
		v, d, ok := it.Next()
		if !ok {
			break
		}
		if d < prev {
			t.Fatalf("iterator distances decreased: %v after %v", d, prev)
		}
		prev = d
		if seen[v] {
			t.Fatalf("vertex %d settled twice", v)
		}
		seen[v] = true
		if !almostEq(d, sp.Dist[v]) {
			t.Fatalf("iterator dist(%d) = %v, want %v", v, d, sp.Dist[v])
		}
		if got, ok := it.SettledDist(v); !ok || !almostEq(got, d) {
			t.Fatalf("SettledDist(%d) = %v,%v", v, got, ok)
		}
		if it.HopsOf(v) != sp.Hops[v] {
			t.Fatalf("hops(%d) = %d, want %d", v, it.HopsOf(v), sp.Hops[v])
		}
	}
	for v := 0; v < 80; v++ {
		if (sp.Dist[v] != Infinity) != seen[VertexID(v)] {
			t.Fatalf("vertex %d reachability mismatch", v)
		}
	}
	if _, _, ok := it.Next(); ok {
		t.Fatal("iterator not exhausted after draining")
	}
	if it.Pops() != len(seen) {
		t.Fatalf("Pops = %d, want %d", it.Pops(), len(seen))
	}
}

func TestIteratorLastKeyLowerBoundsUnsettled(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randomGraph(rng, 60, 150)
	sp := g.Dijkstra(0)
	it := NewDijkstraIterator(g, 0)
	for i := 0; i < 25; i++ {
		if _, _, ok := it.Next(); !ok {
			break
		}
	}
	beta := it.LastKey()
	for v := 0; v < 60; v++ {
		if !it.Settled(VertexID(v)) && sp.Dist[v] != Infinity && sp.Dist[v] < beta-1e-12 {
			t.Fatalf("unsettled vertex %d has dist %v < LastKey %v", v, sp.Dist[v], beta)
		}
	}
}

// next settles the search's next vertex: Pop followed by Expand.
func next(s *AStarSearch) (VertexID, float64, bool) {
	v, d, ok := s.Pop()
	if ok {
		s.Expand(v)
	}
	return v, d, ok
}

func TestAStarZeroHeuristicMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 70, 180)
	sp := g.Dijkstra(2)
	pool := NewAStarPool(g.NumVertices())
	s := pool.NewSearch(g, 2, ZeroHeuristic)
	for {
		v, d, ok := next(s)
		if !ok {
			break
		}
		if !almostEq(d, sp.Dist[v]) {
			t.Fatalf("A* dist(%d) = %v, want %v", v, d, sp.Dist[v])
		}
	}
}

func TestAStarConsistentHeuristicExact(t *testing.T) {
	// Heuristic derived from a real distance table (a "landmark" at vertex
	// 0): h(v) = |dist0[v] - dist0[target]| is consistent, so settled
	// distances must be exact.
	rng := rand.New(rand.NewSource(29))
	g := randomGraph(rng, 70, 180)
	dist0 := g.DistancesFrom(0)
	target := VertexID(55)
	h := func(v VertexID) float64 {
		d := dist0[v] - dist0[target]
		if d < 0 {
			d = -d
		}
		return d
	}
	want := g.DijkstraTo(10, target)
	pool := NewAStarPool(g.NumVertices())
	s := pool.NewSearch(g, 10, h)
	for {
		v, d, ok := next(s)
		if !ok {
			t.Fatal("A* exhausted before target")
		}
		if v == target {
			if !almostEq(d, want) {
				t.Fatalf("A* target dist = %v, want %v", d, want)
			}
			break
		}
	}
}

func TestAStarPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 50, 120)
	pool := NewAStarPool(g.NumVertices())
	for trial := 0; trial < 20; trial++ {
		src := VertexID(rng.Intn(50))
		sp := g.Dijkstra(src)
		s := pool.NewSearch(g, src, ZeroHeuristic)
		for {
			v, d, ok := next(s)
			if !ok {
				break
			}
			if !almostEq(d, sp.Dist[v]) {
				t.Fatalf("trial %d: pooled A* dist(%d) = %v, want %v", trial, v, d, sp.Dist[v])
			}
		}
		// A previous search's state must not leak.
		if s.Pops() == 0 {
			t.Fatal("search settled nothing")
		}
	}
}

func TestBidirectionalMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(2*n))
		s := VertexID(rng.Intn(n))
		sp := g.Dijkstra(s)
		for probe := 0; probe < 10; probe++ {
			tgt := VertexID(rng.Intn(n))
			res := BidirectionalDijkstra(g, s, tgt, ZeroHeuristic, ZeroHeuristic, nil, nil)
			if !almostEq(res.Dist, sp.Dist[tgt]) {
				t.Fatalf("trial %d: bidi dist(%d,%d) = %v, want %v", trial, s, tgt, res.Dist, sp.Dist[tgt])
			}
		}
	}
}

func TestBidirectionalWithLandmarkHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(rng, 80, 200)
	dist0 := g.DistancesFrom(0)
	distL := g.DistancesFrom(40)
	bound := func(table []float64, anchor VertexID) Heuristic {
		return func(v VertexID) float64 {
			b1 := math.Abs(table[v] - table[anchor])
			return b1
		}
	}
	fwdPool := NewAStarPool(g.NumVertices())
	revPool := NewAStarPool(g.NumVertices())
	for trial := 0; trial < 30; trial++ {
		s := VertexID(rng.Intn(80))
		tgt := VertexID(rng.Intn(80))
		want := g.DijkstraTo(s, tgt)
		hF := bound(dist0, tgt)
		hR := bound(distL, s)
		res := BidirectionalDijkstra(g, s, tgt, hF, hR, fwdPool, revPool)
		if !almostEq(res.Dist, want) {
			t.Fatalf("trial %d: ALT bidi dist(%d,%d) = %v, want %v", trial, s, tgt, res.Dist, want)
		}
	}
}

func TestBidirectionalUnreachable(t *testing.T) {
	b := NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	res := BidirectionalDijkstra(g, 0, 3, ZeroHeuristic, ZeroHeuristic, nil, nil)
	if res.Dist != Infinity {
		t.Fatalf("dist = %v, want +Inf", res.Dist)
	}
}

func TestEstimateDiameterPathGraph(t *testing.T) {
	// Path 0-1-2-3-4 with unit weights: diameter 4, double sweep finds it
	// exactly on a path.
	b := NewBuilder(5)
	for v := 0; v < 4; v++ {
		_ = b.AddEdge(VertexID(v), VertexID(v+1), 1)
	}
	g := b.MustBuild()
	if d := g.EstimateDiameter(2); d != 4 {
		t.Fatalf("EstimateDiameter = %v, want 4", d)
	}
}

func TestEstimateDiameterLowerBoundsTrueDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(n))
		all := floydWarshall(g)
		trueDiam := 0.0
		for i := range all {
			for j := range all[i] {
				if all[i][j] != math.Inf(1) && all[i][j] > trueDiam {
					trueDiam = all[i][j]
				}
			}
		}
		est := g.EstimateDiameter(0)
		if est > trueDiam+1e-9 {
			t.Fatalf("estimate %v exceeds true diameter %v", est, trueDiam)
		}
		if est <= 0 && trueDiam > 0 {
			t.Fatalf("estimate %v degenerate (true %v)", est, trueDiam)
		}
	}
}
