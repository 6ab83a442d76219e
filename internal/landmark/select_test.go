package landmark

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ssrq/internal/gen"
	"ssrq/internal/graph"
)

// selectSequential is farthest-first selection as one chain on one
// goroutine: sweep from the vertex farthest from a random seed, then sweep
// from each argmaxDist pick in turn.
func selectSequential(g *graph.Graph, m int, seed int64) ([]graph.VertexID, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	seedV := graph.VertexID(rng.Intn(g.NumVertices()))
	first := farthestFrom(g.DistancesFrom(seedV), seedV)
	vertices := []graph.VertexID{first}
	tables := [][]float64{g.DistancesFrom(first)}
	minDist := append([]float64(nil), tables[0]...)
	for len(vertices) < m {
		next := argmaxDist(minDist, vertices)
		vertices = append(vertices, next)
		t := g.DistancesFrom(next)
		tables = append(tables, t)
		for v := range minDist {
			if t[v] < minDist[v] {
				minDist[v] = t[v]
			}
		}
	}
	return vertices, tables
}

// threeComponents joins three random connected graphs side by side, so
// selection must reach the +Inf entries argmaxDist prefers.
func threeComponents(rng *rand.Rand) *graph.Graph {
	sizes := []int{300, 120, 40}
	b := graph.NewBuilder(300 + 120 + 40)
	lo := 0
	for _, size := range sizes {
		for v := 1; v < size; v++ {
			_ = b.AddEdge(graph.VertexID(lo+rng.Intn(v)), graph.VertexID(lo+v), 0.1+rng.Float64()*9.9)
		}
		for i := 0; i < size; i++ {
			u, v := lo+rng.Intn(size), lo+rng.Intn(size)
			if u != v {
				_ = b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0.1+rng.Float64()*9.9)
			}
		}
		lo += size
	}
	return b.MustBuild()
}

// unitGrid is a side×side lattice with every weight 1: distances tie
// everywhere, so both argmaxDist and the guess fall back on lower IDs.
func unitGrid(side int) *graph.Graph {
	b := graph.NewBuilder(side * side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := graph.VertexID(r*side + c)
			if c+1 < side {
				_ = b.AddEdge(v, v+1, 1)
			}
			if r+1 < side {
				_ = b.AddEdge(v, v+graph.VertexID(side), 1)
			}
		}
	}
	return b.MustBuild()
}

// TestSelectMatchesSequential holds farthest-first selection to the
// one-goroutine chain: the same landmarks and bit-equal tables at one core
// (no speculation) and at two (a helper sweeps from each guess), whatever
// the guesses hit, and no goroutine outlives Select.
func TestSelectMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	graphs := map[string]*graph.Graph{
		"three-components": threeComponents(rand.New(rand.NewSource(3))),
		"unit-grid":        unitGrid(30),
	}
	for _, p := range []gen.Preset{gen.GowallaPreset, gen.UrbanPreset, gen.HomophilyPreset} {
		ds, err := p.Dataset(2000, 42)
		if err != nil {
			t.Fatal(err)
		}
		graphs[p.Name] = ds.G
	}
	before := runtime.NumGoroutine()
	for name, g := range graphs {
		for _, m := range []int{1, 2, 3, 8, 16} {
			for seed := int64(1); seed <= 2; seed++ {
				wantV, wantT := selectSequential(g, m, seed)
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					s, err := Select(g, m, Farthest, seed)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s M=%d seed=%d GOMAXPROCS=%d", name, m, seed, procs)
					if fmt.Sprint(s.Vertices()) != fmt.Sprint(wantV) {
						t.Fatalf("%s: landmarks %v, sequential %v", where, s.Vertices(), wantV)
					}
					for j, want := range wantT {
						for v, d := range want {
							if got := s.VertexRow(graph.VertexID(v))[j]; math.Float64bits(got) != math.Float64bits(d) {
								t.Fatalf("%s: landmark %d to %d = %v, sequential %v", where, j, v, got, d)
							}
						}
					}
				}
			}
		}
	}
	// A joined goroutine may still be unwinding when Wait returns; give it a
	// moment before calling it leaked.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Select, %d before", runtime.NumGoroutine(), before)
		}
	}
}
