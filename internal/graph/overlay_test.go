package graph

import (
	"math"
	"math/rand"
	"testing"
)

// buildRandom returns a connected-ish random graph for overlay tests.
func buildRandom(rng *rand.Rand, n, extra int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(VertexID(rng.Intn(v)), VertexID(v), 0.1+rng.Float64()*4.9)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = b.AddEdge(VertexID(u), VertexID(v), 0.1+rng.Float64()*4.9)
		}
	}
	return b.MustBuild()
}

// edgeModel is the map-based reference the overlay is checked against.
type edgeModel map[[2]VertexID]float64

func pairKey(u, v VertexID) [2]VertexID {
	if u > v {
		u, v = v, u
	}
	return [2]VertexID{u, v}
}

func modelOf(g *Graph) edgeModel {
	m := edgeModel{}
	for v := 0; v < g.NumVertices(); v++ {
		nbrs, ws := g.Neighbors(VertexID(v))
		for i, u := range nbrs {
			m[pairKey(VertexID(v), u)] = ws[i]
		}
	}
	return m
}

// checkAgainstModel verifies a merged graph view agrees with the model on
// edge count, symmetry, sortedness, weights and degrees.
func checkAgainstModel(t testing.TB, g *Graph, model edgeModel) {
	t.Helper()
	if g.NumEdges() != len(model) {
		t.Fatalf("NumEdges = %d, model has %d", g.NumEdges(), len(model))
	}
	degrees := make(map[VertexID]int)
	for k := range model {
		degrees[k[0]]++
		degrees[k[1]]++
	}
	total := 0
	for v := 0; v < g.NumVertices(); v++ {
		id := VertexID(v)
		nbrs, ws := g.Neighbors(id)
		if len(nbrs) != len(ws) {
			t.Fatalf("vertex %d: %d targets but %d weights", v, len(nbrs), len(ws))
		}
		if g.Degree(id) != len(nbrs) {
			t.Fatalf("vertex %d: Degree %d != row length %d", v, g.Degree(id), len(nbrs))
		}
		if len(nbrs) != degrees[id] {
			t.Fatalf("vertex %d: degree %d, model %d", v, len(nbrs), degrees[id])
		}
		total += len(nbrs)
		for i, u := range nbrs {
			if i > 0 && nbrs[i-1] >= u {
				t.Fatalf("vertex %d: adjacency unsorted or duplicated at %d", v, i)
			}
			if u == id {
				t.Fatalf("vertex %d: self-loop", v)
			}
			w, ok := model[pairKey(id, u)]
			if !ok {
				t.Fatalf("edge (%d,%d) not in model", v, u)
			}
			if w != ws[i] {
				t.Fatalf("edge (%d,%d) weight %v, model %v", v, u, ws[i], w)
			}
			if !(ws[i] > 0) || math.IsInf(ws[i], 1) || math.IsNaN(ws[i]) {
				t.Fatalf("edge (%d,%d) weight %v not positive finite", v, u, ws[i])
			}
			// Symmetry: the reverse direction must exist with equal weight.
			if rw, ok := g.EdgeWeight(u, id); !ok || rw != ws[i] {
				t.Fatalf("edge (%d,%d) asymmetric: %v/%v ok=%v", v, u, ws[i], rw, ok)
			}
		}
	}
	if total != 2*len(model) {
		t.Fatalf("total directed degree %d, want %d", total, 2*len(model))
	}
}

func TestOverlayBasicOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := buildRandom(rng, 40, 60)
	o := NewOverlay(g)
	model := modelOf(g)

	// Insert a brand-new edge.
	var u, v VertexID
	for {
		u, v = VertexID(rng.Intn(40)), VertexID(rng.Intn(40))
		if u != v {
			if _, ok := model[pairKey(u, v)]; !ok {
				break
			}
		}
	}
	created, err := o.SetEdge(u, v, 1.5)
	if err != nil || !created {
		t.Fatalf("SetEdge new: created=%v err=%v", created, err)
	}
	model[pairKey(u, v)] = 1.5
	checkAgainstModel(t, o.Freeze(), model)

	// Reweight it.
	created, err = o.SetEdge(v, u, 2.25)
	if err != nil || created {
		t.Fatalf("SetEdge reweight: created=%v err=%v", created, err)
	}
	model[pairKey(u, v)] = 2.25
	checkAgainstModel(t, o.Freeze(), model)

	// Remove it.
	existed, err := o.RemoveEdge(u, v)
	if err != nil || !existed {
		t.Fatalf("RemoveEdge: existed=%v err=%v", existed, err)
	}
	delete(model, pairKey(u, v))
	checkAgainstModel(t, o.Freeze(), model)

	// Removing again is a recorded no-op.
	existed, err = o.RemoveEdge(u, v)
	if err != nil || existed {
		t.Fatalf("double RemoveEdge: existed=%v err=%v", existed, err)
	}
}

func TestOverlayValidation(t *testing.T) {
	o := NewOverlay(buildRandom(rand.New(rand.NewSource(2)), 10, 5))
	cases := []struct {
		u, v VertexID
		w    float64
	}{
		{-1, 2, 1}, {0, 10, 1}, {3, 3, 1},
		{0, 1, 0}, {0, 1, -2}, {0, 1, math.NaN()}, {0, 1, math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := o.SetEdge(c.u, c.v, c.w); err == nil {
			t.Fatalf("SetEdge(%d,%d,%v) accepted", c.u, c.v, c.w)
		}
	}
	if _, err := o.RemoveEdge(-1, 0); err == nil {
		t.Fatal("RemoveEdge out of range accepted")
	}
	if _, err := o.RemoveEdge(4, 4); err == nil {
		t.Fatal("RemoveEdge self-loop accepted")
	}
}

// TestOverlayFrozenGraphsAreImmutable is the epoch-isolation proof at the
// graph layer: a frozen graph must stay bit-identical while the overlay
// keeps mutating and compacting.
func TestOverlayFrozenGraphsAreImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := buildRandom(rng, 60, 80)
	o := NewOverlay(g)

	type frozenEdge struct {
		u, v VertexID
		w    float64
	}
	capture := func(g *Graph) []frozenEdge {
		var out []frozenEdge
		for v := 0; v < g.NumVertices(); v++ {
			nbrs, ws := g.Neighbors(VertexID(v))
			for i, u := range nbrs {
				out = append(out, frozenEdge{VertexID(v), u, ws[i]})
			}
		}
		return out
	}

	var frozen []*Graph
	var want [][]frozenEdge
	for round := 0; round < 30; round++ {
		u, v := VertexID(rng.Intn(60)), VertexID(rng.Intn(60))
		if u == v {
			continue
		}
		if rng.Intn(3) == 0 {
			_, _ = o.RemoveEdge(u, v)
		} else {
			_, _ = o.SetEdge(u, v, 0.1+rng.Float64())
		}
		fg := o.Freeze()
		frozen = append(frozen, fg)
		want = append(want, capture(fg))
		if round == 15 {
			o.Compact()
			if o.PatchedCount() != 0 {
				t.Fatal("compact left patches")
			}
		}
	}
	o.Compact()
	for i, fg := range frozen {
		got := capture(fg)
		if len(got) != len(want[i]) {
			t.Fatalf("epoch %d changed size after later mutations", i)
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("epoch %d edge %d changed: %+v -> %+v", i, j, want[i][j], got[j])
			}
		}
	}
}

// TestOverlayRandomOpsMatchRebuild drives a long random op sequence and
// cross-checks the frozen view against a from-scratch CSR build of the model
// after every compaction boundary.
func TestOverlayRandomOpsMatchRebuild(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := 20 + rng.Intn(60)
		g := buildRandom(rng, n, n)
		o := NewOverlay(g)
		model := modelOf(g)
		for op := 0; op < 300; op++ {
			u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(4) == 0 {
				existed, err := o.RemoveEdge(u, v)
				if err != nil {
					t.Fatal(err)
				}
				_, inModel := model[pairKey(u, v)]
				if existed != inModel {
					t.Fatalf("RemoveEdge existed=%v, model=%v", existed, inModel)
				}
				delete(model, pairKey(u, v))
			} else {
				w := 0.1 + rng.Float64()*2
				created, err := o.SetEdge(u, v, w)
				if err != nil {
					t.Fatal(err)
				}
				_, inModel := model[pairKey(u, v)]
				if created == inModel {
					t.Fatalf("SetEdge created=%v, model had=%v", created, inModel)
				}
				model[pairKey(u, v)] = w
			}
			if op%97 == 0 {
				o.Compact()
			}
		}
		checkAgainstModel(t, o.Freeze(), model)
		checkAgainstModel(t, o.Working(), model)
	}
}

// TestEdgeWeightBinarySearch pins the EdgeWeight contract on both CSR and
// patched rows: exact hits everywhere, misses nowhere, including first/last
// neighbors (the boundaries a broken binary search gets wrong).
func TestEdgeWeightBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildRandom(rng, 50, 200)
	o := NewOverlay(g)
	for i := 0; i < 40; i++ {
		u, v := VertexID(rng.Intn(50)), VertexID(rng.Intn(50))
		if u != v {
			_, _ = o.SetEdge(u, v, 0.5+rng.Float64())
		}
	}
	merged := o.Freeze()
	for _, gr := range []*Graph{g, merged} {
		model := modelOf(gr)
		for v := 0; v < gr.NumVertices(); v++ {
			id := VertexID(v)
			nbrs, ws := gr.Neighbors(id)
			for i, u := range nbrs {
				if w, ok := gr.EdgeWeight(id, u); !ok || w != ws[i] {
					t.Fatalf("EdgeWeight(%d,%d) = %v,%v want %v,true", v, u, w, ok, ws[i])
				}
			}
			for probe := 0; probe < 20; probe++ {
				u := VertexID(rng.Intn(50))
				_, inModel := model[pairKey(id, u)]
				if id == u {
					inModel = false
				}
				if _, ok := gr.EdgeWeight(id, u); ok != inModel {
					t.Fatalf("EdgeWeight(%d,%d) ok=%v, model=%v", v, u, ok, inModel)
				}
			}
		}
	}
}

// BenchmarkEdgeWeight measures the sorted-adjacency binary search on a
// high-degree hub — the shape where a linear scan would hurt in hot loops
// (landmark repair support checks).
func BenchmarkEdgeWeight(b *testing.B) {
	const n = 20000
	gb := NewBuilder(n)
	// Hub vertex 0 with ~n/2 neighbors.
	for v := 2; v < n; v += 2 {
		_ = gb.AddEdge(0, VertexID(v), 1)
	}
	g := gb.MustBuild()
	b.Run("csr-hub", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Mix of hits and misses across the full range.
			g.EdgeWeight(0, VertexID(i%n))
		}
	})
	o := NewOverlay(g)
	_, _ = o.SetEdge(0, 1, 2) // patch the hub row
	merged := o.Freeze()
	b.Run("patched-hub", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			merged.EdgeWeight(0, VertexID(i%n))
		}
	})
}

// BenchmarkOverlayChurn measures sustained edge mutation throughput with
// periodic freeze (one publication per 64 ops, the updater's batching
// shape).
func BenchmarkOverlayChurn(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := buildRandom(rng, 10000, 30000)
	o := NewOverlay(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := VertexID(rng.Intn(10000)), VertexID(rng.Intn(10000))
		if u == v {
			continue
		}
		if i%3 == 0 {
			_, _ = o.RemoveEdge(u, v)
		} else {
			_, _ = o.SetEdge(u, v, 1)
		}
		if i%64 == 0 {
			o.Freeze()
		}
		if o.PatchedCount() > 2000 {
			o.Compact()
		}
	}
}
