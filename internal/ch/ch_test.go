package ch

import (
	"math/rand"
	"testing"

	"ssrq/internal/graph"
)

func randomGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		_ = b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0.1+rng.Float64()*9.9)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0.1+rng.Float64()*9.9)
		}
	}
	return b.MustBuild()
}

// dist is the reference distance, from the full sweep.
func dist(g *graph.Graph, s, t graph.VertexID) float64 { return g.DistancesFrom(s)[t] }

func TestCoreVariantStaysExact(t *testing.T) {
	// A tiny degree cap forces most vertices into the core; distances must
	// stay exact (the upward search wanders the core plateau).
	rng := rand.New(rand.NewSource(21))
	for _, cap := range []int{2, 4, 8} {
		g := randomGraph(rng, 60, 150)
		c := build(g, 60, cap)
		if cap <= 4 && c.coreSize == 0 {
			t.Fatalf("cap %d formed no core on a dense graph", cap)
		}
		for probe := 0; probe < 25; probe++ {
			s := graph.VertexID(rng.Intn(60))
			tgt := graph.VertexID(rng.Intn(60))
			want := dist(g, s, tgt)
			got, _ := c.Dist(s, tgt)
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("cap %d: Dist(%d,%d) = %v, want %v (core %d)", cap, s, tgt, got, want, c.coreSize)
			}
		}
	}
}

func TestHubGraphBuildsQuickly(t *testing.T) {
	// A star-of-stars with huge hubs: contraction must not blow up.
	b := graph.NewBuilder(2001)
	for h := 0; h < 4; h++ {
		hub := graph.VertexID(h)
		for v := 4 + h; v < 2001; v += 4 {
			_ = b.AddEdge(hub, graph.VertexID(v), 1+float64(v%7))
		}
	}
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	_ = b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	c := Build(g)
	rng := rand.New(rand.NewSource(5))
	for probe := 0; probe < 20; probe++ {
		s := graph.VertexID(rng.Intn(2001))
		tgt := graph.VertexID(rng.Intn(2001))
		want := dist(g, s, tgt)
		got, _ := c.Dist(s, tgt)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Dist(%d,%d) = %v, want %v", s, tgt, got, want)
		}
	}
}

func TestDistMatchesDijkstraSmall(t *testing.T) {
	// Fixed tiny graph: verify all pairs.
	b := graph.NewBuilder(6)
	edges := []struct {
		u, v graph.VertexID
		w    float64
	}{
		{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 4, 3}, {4, 5, 1}, {0, 5, 10}, {1, 4, 4},
	}
	for _, e := range edges {
		_ = b.AddEdge(e.u, e.v, e.w)
	}
	g := b.MustBuild()
	c := Build(g)
	for s := 0; s < 6; s++ {
		want := g.DistancesFrom(graph.VertexID(s))
		for v := 0; v < 6; v++ {
			got, _ := c.Dist(graph.VertexID(s), graph.VertexID(v))
			if diff := got - want[v]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("Dist(%d,%d) = %v, want %v", s, v, got, want[v])
			}
		}
	}
}

func TestDistMatchesDijkstraRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(80)
		g := randomGraph(rng, n, rng.Intn(3*n))
		c := Build(g)
		for probe := 0; probe < 15; probe++ {
			s := graph.VertexID(rng.Intn(n))
			tgt := graph.VertexID(rng.Intn(n))
			want := dist(g, s, tgt)
			got, _ := c.Dist(s, tgt)
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d: Dist(%d,%d) = %v, want %v (shortcuts=%d)",
					trial, s, tgt, got, want, c.shortcuts)
			}
		}
	}
}

func TestDistUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	c := Build(g)
	if d, _ := c.Dist(0, 3); d != graph.Infinity {
		t.Fatalf("cross-component Dist = %v", d)
	}
	if d, _ := c.Dist(2, 2); d != 0 {
		t.Fatalf("self Dist = %v", d)
	}
}

func TestRanksValid(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(9)), 30, 60)
	c := Build(g)
	// Non-core ranks are distinct; core vertices (if any) share the top
	// rank, and exactly coreSize of them exist.
	seen := map[int32]int{}
	topCount := 0
	for v := 0; v < 30; v++ {
		r := c.rank[v]
		if r < 0 || int(r) > 30 {
			t.Fatalf("rank of %d = %d out of range", v, r)
		}
		seen[r]++
		if seen[r] > 1 {
			topCount = seen[r]
		}
	}
	if c.coreSize == 0 && topCount > 1 {
		t.Fatal("duplicate ranks without a core")
	}
}

func TestTinyWitnessLimitStillCorrect(t *testing.T) {
	// A settle limit of 1 forces many redundant shortcuts, but distances
	// must stay exact.
	rng := rand.New(rand.NewSource(12))
	g := randomGraph(rng, 40, 80)
	c := build(g, 1, maxContractDegree)
	loose := Build(g)
	if c.shortcuts < loose.shortcuts {
		t.Fatalf("tight witness limit created fewer shortcuts (%d < %d)", c.shortcuts, loose.shortcuts)
	}
	for probe := 0; probe < 30; probe++ {
		s := graph.VertexID(rng.Intn(40))
		tgt := graph.VertexID(rng.Intn(40))
		want := dist(g, s, tgt)
		got, _ := c.Dist(s, tgt)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Dist(%d,%d) = %v, want %v", s, tgt, got, want)
		}
	}
}

func TestPopsReported(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(15)), 50, 100)
	c := Build(g)
	_, pops := c.Dist(0, 49)
	if pops <= 0 {
		t.Fatalf("pops = %d", pops)
	}
}
