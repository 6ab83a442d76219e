package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortReferenceBuild is the comparison-sort CSR construction Build replaced:
// sort all 2m half-edges by (from, to, weight), keep the first of each
// (from, to) run, and count rows from the survivors. Build must reproduce its
// output bit for bit.
func sortReferenceBuild(n int, us, vs []VertexID, ws []float64) *Graph {
	type half struct {
		from, to VertexID
		w        float64
	}
	halves := make([]half, 0, 2*len(us))
	for i := range us {
		halves = append(halves,
			half{us[i], vs[i], ws[i]},
			half{vs[i], us[i], ws[i]})
	}
	sort.Slice(halves, func(i, j int) bool {
		if halves[i].from != halves[j].from {
			return halves[i].from < halves[j].from
		}
		if halves[i].to != halves[j].to {
			return halves[i].to < halves[j].to
		}
		return halves[i].w < halves[j].w
	})
	dedup := halves[:0]
	for _, h := range halves {
		if k := len(dedup); k > 0 && dedup[k-1].from == h.from && dedup[k-1].to == h.to {
			continue
		}
		dedup = append(dedup, h)
	}
	g := &Graph{
		offsets: make([]int32, n+1),
		targets: make([]VertexID, len(dedup)),
		weights: make([]float64, len(dedup)),
		numEdge: len(dedup) / 2,
	}
	for i, h := range dedup {
		g.offsets[h.from+1]++
		g.targets[i] = h.to
		g.weights[i] = h.w
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	return g
}

// edgeList is a builder input kept around so the reference can see it too.
type edgeList struct {
	n      int
	us, vs []VertexID
	ws     []float64
}

func (el *edgeList) add(u, v VertexID, w float64) {
	el.us = append(el.us, u)
	el.vs = append(el.vs, v)
	el.ws = append(el.ws, w)
}

// checkBuildMatchesReference builds el both ways and demands identical CSR
// arrays, edge counts, and targets/weights with no spare capacity.
func checkBuildMatchesReference(t *testing.T, el *edgeList) {
	t.Helper()
	b := NewBuilder(el.n)
	for i := range el.us {
		if err := b.AddEdge(el.us[i], el.vs[i], el.ws[i]); err != nil {
			t.Fatalf("AddEdge(%d,%d,%v): %v", el.us[i], el.vs[i], el.ws[i], err)
		}
	}
	got := b.MustBuild()
	want := sortReferenceBuild(el.n, el.us, el.vs, el.ws)
	if !slices.Equal(got.offsets, want.offsets) {
		t.Fatalf("offsets differ:\n got %v\nwant %v", got.offsets, want.offsets)
	}
	if !slices.Equal(got.targets, want.targets) {
		t.Fatalf("targets differ:\n got %v\nwant %v", got.targets, want.targets)
	}
	// Bitwise, not ==: a weight may only come out of the input unchanged.
	if len(got.weights) != len(want.weights) {
		t.Fatalf("weights: %d entries, want %d", len(got.weights), len(want.weights))
	}
	for i := range got.weights {
		if got.weights[i] != want.weights[i] {
			t.Fatalf("weights[%d] = %v, want %v", i, got.weights[i], want.weights[i])
		}
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", got.NumEdges(), want.NumEdges())
	}
	if len(got.targets) != cap(got.targets) || len(got.weights) != cap(got.weights) {
		t.Fatalf("spare capacity: targets %d/%d, weights %d/%d",
			len(got.targets), cap(got.targets), len(got.weights), cap(got.weights))
	}
}

func TestBuildMatchesSortReference(t *testing.T) {
	t.Run("empty n=1", func(t *testing.T) {
		checkBuildMatchesReference(t, &edgeList{n: 1})
	})
	t.Run("n=2 duplicates both orientations", func(t *testing.T) {
		el := &edgeList{n: 2}
		el.add(0, 1, 3)
		el.add(1, 0, 2)
		el.add(0, 1, 2.5)
		el.add(1, 0, 2) // an exact duplicate of the minimum
		checkBuildMatchesReference(t, el)
	})
	t.Run("hub", func(t *testing.T) {
		// One vertex adjacent to everyone, added in shuffled order and
		// repeated with heavier weights, plus isolated vertices at the end.
		rng := rand.New(rand.NewSource(7))
		el := &edgeList{n: 600}
		const hub = 300
		for _, v := range rng.Perm(590) {
			if v == hub {
				continue
			}
			el.add(hub, VertexID(v), 1+rng.Float64())
			if rng.Intn(4) == 0 {
				el.add(VertexID(v), hub, 2+rng.Float64())
			}
		}
		checkBuildMatchesReference(t, el)
	})
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		el := &edgeList{n: n}
		if n >= 2 {
			for i := rng.Intn(4 * n); i > 0; i-- {
				u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
				if u == v {
					continue
				}
				// Few distinct weights, so equal-weight duplicates occur too.
				w := float64(1+rng.Intn(5)) / 4
				el.add(u, v, w)
				switch rng.Intn(4) {
				case 0:
					el.add(v, u, float64(1+rng.Intn(5))/4)
				case 1:
					el.add(u, v, w)
				}
			}
		}
		checkBuildMatchesReference(t, el)
	}
}

// FuzzBuild decodes arbitrary bytes as an edge list — 3 bytes per edge,
// [u, v, w] over a vertex count taken from the first byte — and checks Build
// against the comparison-sort reference. Self-loops are skipped rather than
// rejected so every input exercises the builder.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{2, 0, 1, 10})
	f.Add([]byte{5, 0, 1, 10, 1, 0, 3, 0, 1, 3, 2, 4, 1, 4, 2, 1})
	f.Add([]byte{0, 7, 7, 1}) // n=1: the only edge is a self-loop
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		el := &edgeList{n: 1 + int(data[0])%64}
		for i := 1; i+2 < len(data); i += 3 {
			u := VertexID(int(data[i]) % el.n)
			v := VertexID(int(data[i+1]) % el.n)
			if u == v {
				continue
			}
			el.add(u, v, float64(data[i+2])/8+0.125)
		}
		checkBuildMatchesReference(t, el)
	})
}
