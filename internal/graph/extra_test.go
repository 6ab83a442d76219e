package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScaleWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 30, 60)
	s := g.ScaleWeights(0.5)
	if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
		t.Fatal("topology changed")
	}
	for v := 0; v < 30; v++ {
		n1, w1 := g.Neighbors(VertexID(v))
		n2, w2 := s.Neighbors(VertexID(v))
		if len(n1) != len(n2) {
			t.Fatal("adjacency changed")
		}
		for i := range n1 {
			if n1[i] != n2[i] || math.Abs(w2[i]-w1[i]*0.5) > 1e-12 {
				t.Fatal("weights scaled wrong")
			}
		}
	}
	// Distances scale linearly.
	d1 := g.DistancesFrom(0)
	d2 := s.DistancesFrom(0)
	for v := range d1 {
		if d1[v] == Infinity {
			if d2[v] != Infinity {
				t.Fatal("reachability changed")
			}
			continue
		}
		if math.Abs(d2[v]-d1[v]*0.5) > 1e-9 {
			t.Fatalf("distance %d not scaled: %v vs %v", v, d2[v], d1[v])
		}
	}
}

func TestIteratorHeadKey(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 50, 100)
	it := NewDijkstraIterator(g, 0)
	sp := g.Dijkstra(0)
	for {
		head, ok := it.HeadKey()
		if !ok {
			break
		}
		v, d, ok2 := it.Next()
		if !ok2 {
			break
		}
		if math.Abs(head-d) > 1e-12 {
			t.Fatalf("HeadKey %v != next settled distance %v", head, d)
		}
		// HeadKey must lower-bound every unsettled vertex.
		for u := 0; u < 50; u++ {
			if !it.Settled(VertexID(u)) && sp.Dist[u] < head-1e-12 {
				t.Fatalf("unsettled %d closer (%v) than head key %v after settling %d", u, sp.Dist[u], head, v)
			}
		}
	}
}

func TestDijkstraQuickProperty(t *testing.T) {
	// testing/quick drives random adjacency structures; Dijkstra must agree
	// with Floyd-Warshall on every generated graph.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(2*n))
		want := floydWarshall(g)
		src := VertexID(rng.Intn(n))
		got := g.DistancesFrom(src)
		for v := 0; v < n; v++ {
			if !almostEq(got[v], want[src][v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBidirectionalQuickProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(n))
		s, tg := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		want := g.DijkstraTo(s, tg)
		got := BidirectionalDijkstra(g, s, tg, ZeroHeuristic, ZeroHeuristic, nil, nil).Dist
		return almostEq(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAStarPopWithoutExpand(t *testing.T) {
	// Pop/Expand split: not expanding a vertex must keep the search sound
	// for vertices already discovered.
	b := NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	_ = b.AddEdge(0, 3, 5)
	_ = b.AddEdge(3, 2, 1)
	g := b.MustBuild()
	pool := NewAStarPool(4)
	s := pool.NewSearch(g, 0, ZeroHeuristic)
	v, d, _ := s.Pop() // settles 0
	if v != 0 || d != 0 {
		t.Fatalf("first pop = %d,%v", v, d)
	}
	s.Expand(v)
	v, d, _ = s.Pop() // settles 1 at distance 1
	if v != 1 || d != 1 {
		t.Fatalf("second pop = %d,%v", v, d)
	}
	// Do NOT expand 1; next pop must be 3 (dist 5), not 2.
	v, d, _ = s.Pop()
	if v != 3 || d != 5 {
		t.Fatalf("third pop = %d,%v; want 3,5", v, d)
	}
	if s.Settled(2) {
		t.Fatal("vertex 2 settled without a path")
	}
}

func TestEstimateDiameterDisconnected(t *testing.T) {
	b := NewBuilder(5)
	_ = b.AddEdge(0, 1, 3)
	_ = b.AddEdge(2, 3, 7) // separate component, larger internal distance
	g := b.MustBuild()
	// Estimate from component {0,1} only sees that component.
	if d := g.EstimateDiameter(0); d != 3 {
		t.Fatalf("component diameter = %v, want 3", d)
	}
}

// TestIteratorResetStartsClean reuses one iterator across sources, graphs of
// different sizes and abandoned runs: Reset only moves to a new generation,
// so nothing a previous run labelled may be visible to the next.
func TestIteratorResetStartsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	it := &DijkstraIterator{}
	for round := 0; round < 40; round++ {
		n := 20 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(2*n))
		src := VertexID(rng.Intn(n))
		it.Reset(g, src)
		for v := 0; v < n; v++ {
			if v := VertexID(v); v != src && (it.Settled(v) || it.labelled(v) || it.HopsOf(v) != -1) {
				t.Fatalf("round %d: vertex %d carries a label into a fresh run", round, v)
			}
		}
		sp := g.Dijkstra(src)
		stop := rng.Intn(n + 1) // most runs are abandoned part-way
		for i := 0; i < stop; i++ {
			v, d, ok := it.Next()
			if !ok {
				break
			}
			if !almostEq(d, sp.Dist[v]) || it.HopsOf(v) != sp.Hops[v] || it.parent[v] != sp.Parent[v] {
				t.Fatalf("round %d: settled %d at %v (%d hops, parent %d), want %v (%d hops, parent %d)",
					round, v, d, it.HopsOf(v), it.parent[v], sp.Dist[v], sp.Hops[v], sp.Parent[v])
			}
		}
	}
}

// TestRunToBallBudget pins the budget contract: an unanswered search settled
// exactly its budget and reports the length of a real path (or Infinity); an
// answered one reports the distance; and more budget never un-answers.
func TestRunToBallBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		n := 30 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(2*n))
		goal, src := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		truth := g.Dijkstra(goal).Dist
		ball := NewDijkstraIterator(g, goal)
		for i := rng.Intn(n/2) + 1; i > 0; i-- {
			ball.Next()
		}
		if ball.Settled(src) {
			continue
		}
		floor, _ := ball.HeadKey()
		pool := NewAStarPool(n)
		wasAnswered := false
		for budget := 0; budget <= n; budget++ {
			s := pool.NewSearch(g, src, ZeroHeuristic)
			got, _, answered := s.RunToBall(ball, floor, Infinity, Infinity, budget)
			switch {
			case answered && !almostEq(got, truth[src]):
				t.Fatalf("trial %d budget %d: answered %v, want %v", trial, budget, got, truth[src])
			case !answered && (s.Pops() != budget || got < truth[src]-1e-9 || wasAnswered):
				t.Fatalf("trial %d budget %d: unanswered after %d pops with best %v (truth %v, answered with less: %v)",
					trial, budget, s.Pops(), got, truth[src], wasAnswered)
			}
			wasAnswered = answered
		}
		if !wasAnswered {
			t.Fatalf("trial %d: a budget of n did not answer", trial)
		}
	}
}
