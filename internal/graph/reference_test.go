package graph

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ssrq/internal/pqueue"
)

// ShortestPaths holds a full single-source shortest-path tree.
type ShortestPaths struct {
	Source VertexID
	Dist   []float64 // Infinity for unreachable vertices
	Parent []VertexID
	Hops   []int32 // edge count along the shortest-path tree; -1 if unreachable
}

// Dijkstra is the reference full sweep: textbook Dijkstra on a decrease-key
// binary heap with (key, id) tie-breaks, keeping the shortest-path tree. The
// tests hold DistancesFrom to it bit for bit.
func (g *Graph) Dijkstra(source VertexID) *ShortestPaths {
	n := g.NumVertices()
	sp := &ShortestPaths{
		Source: source,
		Dist:   make([]float64, n),
		Parent: make([]VertexID, n),
		Hops:   make([]int32, n),
	}
	for i := range sp.Dist {
		sp.Dist[i] = Infinity
		sp.Parent[i] = -1
		sp.Hops[i] = -1
	}
	h := pqueue.NewIndexedHeap(n)
	sp.Dist[source] = 0
	sp.Hops[source] = 0
	h.PushOrDecrease(source, 0)
	for {
		v, dv, ok := h.PopMin()
		if !ok {
			break
		}
		if dv > sp.Dist[v] { // stale entry (cannot happen with decrease-key, kept defensively)
			continue
		}
		nbrs, ws := g.Neighbors(v)
		for i, u := range nbrs {
			if nd := dv + ws[i]; nd < sp.Dist[u] {
				sp.Dist[u] = nd
				sp.Parent[u] = v
				sp.Hops[u] = sp.Hops[v] + 1
				h.PushOrDecrease(u, nd)
			}
		}
	}
	return sp
}

// ZeroHeuristic makes A* behave exactly like Dijkstra.
func ZeroHeuristic(VertexID) float64 { return 0 }

// DijkstraTo is the point-to-point oracle: the iterator run until target
// settles. Returns Infinity when unreachable.
func (g *Graph) DijkstraTo(source, target VertexID) float64 {
	if source == target {
		return 0
	}
	it := NewDijkstraIterator(g, source)
	for {
		v, d, ok := it.Next()
		if !ok {
			return Infinity
		}
		if v == target {
			return d
		}
	}
}

// PathTo reconstructs the vertex sequence from the tree source to v, or nil
// if v is unreachable.
func (sp *ShortestPaths) PathTo(v VertexID) []VertexID {
	if sp.Dist[v] == Infinity {
		return nil
	}
	var rev []VertexID
	for x := v; x != -1; x = sp.Parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// checkSweep holds the sweep from src to the reference: every distance equal
// bit for bit, and every reachable vertex expanded exactly once (a stale pop
// expanded, or a push on a non-strict improvement, shows up only there).
func checkSweep(t testing.TB, g *Graph, src VertexID) {
	t.Helper()
	want := g.Dijkstra(src).Dist
	got, expanded := g.sweep(src)
	reachable := 0
	for v, w := range want {
		if math.Float64bits(got[v]) != math.Float64bits(w) {
			t.Fatalf("n=%d src=%d: dist(%d) = %v (%#x), reference %v (%#x)",
				g.NumVertices(), src, v, got[v], math.Float64bits(got[v]), w, math.Float64bits(w))
		}
		if w != Infinity {
			reachable++
		}
	}
	if expanded != reachable {
		t.Fatalf("n=%d src=%d: expanded %d vertices, %d reachable", g.NumVertices(), src, expanded, reachable)
	}
}

// weightedGraph builds a graph on n vertices from a spanning tree over the
// first span vertices (the rest start isolated) plus extra random edges, all
// weights drawn by w.
func weightedGraph(rng *rand.Rand, n, span, extra int, w func() float64) *Graph {
	b := NewBuilder(n)
	for v := 1; v < span; v++ {
		_ = b.AddEdge(VertexID(rng.Intn(v)), VertexID(v), w())
	}
	for i := 0; i < extra; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			_ = b.AddEdge(VertexID(u), VertexID(v), w())
		}
	}
	return b.MustBuild()
}

// TestDistancesFromMatchesReference: the radix-heap sweep returns the
// reference Dijkstra's distances bit for bit, on graphs chosen to make tie
// order, component structure, degree skew, overlay rows and absorbed
// additions matter.
func TestDistancesFromMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	allSources := func(t *testing.T, g *Graph) {
		for src := 0; src < g.NumVertices(); src++ {
			checkSweep(t, g, VertexID(src))
		}
	}

	t.Run("random", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			n := 2 + rng.Intn(80)
			allSources(t, randomGraph(rng, n, rng.Intn(3*n)))
		}
	})

	t.Run("forced-ties", func(t *testing.T) {
		// Few distinct weights, some not binary fractions: many vertices sit at
		// equal distances, and paths of equal real length round differently.
		for _, set := range [][]float64{{1}, {1, 2}, {0.1, 0.2, 0.3, 0.7}} {
			for trial := 0; trial < 10; trial++ {
				n := 2 + rng.Intn(60)
				allSources(t, weightedGraph(rng, n, n, rng.Intn(3*n), func() float64 { return set[rng.Intn(len(set))] }))
			}
		}
	})

	t.Run("disconnected", func(t *testing.T) {
		for trial := 0; trial < 10; trial++ {
			n := 10 + rng.Intn(50)
			// Spanning tree over a prefix, sparse extras: several components
			// and isolated vertices.
			allSources(t, weightedGraph(rng, n, n/3, n/4, func() float64 { return 0.5 + rng.Float64() }))
		}
	})

	t.Run("single-vertex", func(t *testing.T) {
		allSources(t, NewBuilder(1).MustBuild())
	})

	t.Run("hub", func(t *testing.T) {
		const n = 600
		b := NewBuilder(n)
		for v := 1; v < n; v++ {
			_ = b.AddEdge(0, VertexID(v), float64(1+rng.Intn(4)))
			if v > 1 && rng.Intn(3) == 0 {
				_ = b.AddEdge(VertexID(v-1), VertexID(v), float64(1+rng.Intn(4)))
			}
		}
		g := b.MustBuild()
		for _, src := range []VertexID{0, 1, 299, n - 1} {
			checkSweep(t, g, src)
		}
	})

	t.Run("overlay", func(t *testing.T) {
		for trial := 0; trial < 10; trial++ {
			n := 10 + rng.Intn(60)
			o := NewOverlay(randomGraph(rng, n, n))
			for op := 0; op < 3*n; op++ {
				u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
				if u == v {
					continue
				}
				if rng.Intn(3) == 0 {
					_, _ = o.RemoveEdge(u, v)
				} else {
					_, _ = o.SetEdge(u, v, float64(1+rng.Intn(3)))
				}
				if op%n == 0 {
					allSources(t, o.Freeze())
				}
			}
			allSources(t, o.Freeze())
		}
	})

	t.Run("absorbed-additions", func(t *testing.T) {
		// Weights so small against the distances they extend that dv+w == dv:
		// whole chains of vertices share one distance, and a kernel that
		// pushed on a non-strict improvement would expand them again.
		tiny := 1e-17
		if 1+tiny != 1 {
			t.Fatal("tiny weight is not absorbed")
		}
		for trial := 0; trial < 10; trial++ {
			n := 5 + rng.Intn(50)
			allSources(t, weightedGraph(rng, n, n, rng.Intn(2*n), func() float64 {
				if rng.Intn(2) == 0 {
					return tiny
				}
				return 1 + float64(rng.Intn(2))
			}))
		}
	})
}

// fuzzWeights are the weights FuzzDistancesFrom draws from: repeated values
// force ties, 0.1-style values round, and tiny ones are absorbed by larger
// distances (dv+w == dv), down to the smallest subnormal.
var fuzzWeights = [...]float64{1, 2, 0.1, 0.2, 0.3, 1e-17, 3.5, 5e-324}

// FuzzDistancesFrom builds a graph from bytes and checks the sweep from every
// source against the reference. The first byte sets the vertex count; each
// following byte triple is one edge [u, v, weight], where the weight byte
// picks from fuzzWeights or, from len(fuzzWeights) up, is byte/16.
func FuzzDistancesFrom(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 1, 2, 0, 2, 3, 5})
	f.Add([]byte{6, 0, 1, 2, 1, 2, 3, 0, 2, 4, 3, 4, 5, 4, 5, 200})
	f.Add([]byte{12, 0, 1, 5, 1, 2, 5, 2, 3, 5, 0, 3, 0, 3, 4, 7, 5, 6, 1})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		n := 1 + int(program[0])%48
		b := NewBuilder(n)
		for i := 1; i+2 < len(program); i += 3 {
			u, v := VertexID(int(program[i])%n), VertexID(int(program[i+1])%n)
			if u == v {
				continue
			}
			w := float64(program[i+2]) / 16
			if k := int(program[i+2]); k < len(fuzzWeights) {
				w = fuzzWeights[k]
			}
			if err := b.AddEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
		}
		g := b.MustBuild()
		for src := 0; src < n; src++ {
			checkSweep(t, g, VertexID(src))
		}
	})
}

// TestSweepAllocatesLittleBeyondItsTable: a sweep reuses a pooled radix heap,
// so once the heap has grown, one call allocates little more than the
// distance table it returns. Without the pool a 30k-vertex sweep regrows the
// heap's buckets from empty, about 17× the table. The least of a few calls is
// taken: the pool may drop its heap at a collection, or at random under the
// race detector.
func TestSweepAllocatesLittleBeyondItsTable(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(45)), 30000, 4*30000)
	table := uint64(8 * g.NumVertices())
	g.DistancesFrom(0) // grows the pooled heap
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for src := VertexID(1); src <= 8; src++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		g.DistancesFrom(src)
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	t.Logf("one sweep allocates %d bytes for a %d-byte table", least, table)
	if least > 2*table {
		t.Fatalf("one sweep allocates %d bytes, more than twice its %d-byte table", least, table)
	}
}
