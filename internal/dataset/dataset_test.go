package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

func mkRaw(t *testing.T, rng *rand.Rand, n int) (*graph.Graph, []spatial.Point, []bool) {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), 0.5+rng.Float64()*9.5)
	}
	g := b.MustBuild()
	pts := make([]spatial.Point, n)
	located := make([]bool, n)
	for i := range pts {
		pts[i] = spatial.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}
		located[i] = i%5 != 0
	}
	return g, pts, located
}

func TestNewValidation(t *testing.T) {
	g := graph.NewBuilder(3).MustBuild()
	if _, err := New("x", g, make([]spatial.Point, 2), make([]bool, 3)); err == nil {
		t.Fatal("mismatched points accepted")
	}
	if _, err := New("x", g, make([]spatial.Point, 3), make([]bool, 2)); err == nil {
		t.Fatal("mismatched flags accepted")
	}
	empty := graph.NewBuilder(0).MustBuild()
	if _, err := New("x", empty, nil, nil); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestNormalizationBringsDistancesNearUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, pts, located := mkRaw(t, rng, 120)
	ds, err := New("t", g, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Norms.Social <= 0 || ds.Norms.Spatial <= 0 {
		t.Fatalf("norms %+v", ds.Norms)
	}
	// Normalized spatial distances between located users fit in [0, 1].
	for i := 0; i < 120; i += 7 {
		for j := 0; j < 120; j += 11 {
			d := ds.EuclideanDist(int32(i), int32(j))
			if ds.Located[i] && ds.Located[j] {
				if d < 0 || d > 1+1e-9 {
					t.Fatalf("normalized distance %v out of [0,1]", d)
				}
			} else if !math.IsInf(d, 1) {
				t.Fatalf("unlocated pair distance %v, want +Inf", d)
			}
		}
	}
	// The double-sweep underestimates the diameter, so some normalized
	// graph distances may slightly exceed 1, but most should be ≤ ~2.
	dist := ds.G.DistancesFrom(0)
	for _, d := range dist {
		if d != graph.Infinity && d > 2.5 {
			t.Fatalf("normalized social distance %v far above 1", d)
		}
	}
}

func TestScaledGraphPreservesTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, pts, located := mkRaw(t, rng, 50)
	ds, err := New("t", g, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	if ds.G.NumEdges() != g.NumEdges() || ds.G.NumVertices() != g.NumVertices() {
		t.Fatal("normalization changed topology")
	}
	// Scaled weight × norm == raw weight.
	w1, _ := ds.G.EdgeWeight(0, 1)
	w0, ok := g.EdgeWeight(0, 1)
	if ok && math.Abs(w1*ds.Norms.Social-w0) > 1e-9 {
		t.Fatalf("weight scaling wrong: %v * %v != %v", w1, ds.Norms.Social, w0)
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, pts, located := mkRaw(t, rng, 100)
	ds, _ := New("gowalla-like", g, pts, located)
	st := ds.Stats()
	if st.Name != "gowalla-like" || st.NumVertices != 100 || st.NumEdges != g.NumEdges() {
		t.Fatalf("stats %+v", st)
	}
	wantLocated := 0
	for _, l := range located {
		if l {
			wantLocated++
		}
	}
	if st.NumLocated != wantLocated {
		t.Fatalf("NumLocated = %d, want %d", st.NumLocated, wantLocated)
	}
	if math.Abs(st.AvgDegree-g.AvgDegree()) > 1e-12 {
		t.Fatal("AvgDegree mismatch")
	}
}

func TestPaddedBoundsContainPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, pts, located := mkRaw(t, rng, 80)
	ds, _ := New("t", g, pts, located)
	pb := ds.PaddedBounds()
	for i, p := range ds.Pts {
		if ds.Located[i] && !pb.Contains(p) {
			t.Fatalf("padded bounds exclude point %d", i)
		}
	}
	b := ds.bounds
	if pb.MinX >= b.MinX || pb.MaxX <= b.MaxX {
		t.Fatal("padding did not grow bounds")
	}
}

func TestAllUnlocated(t *testing.T) {
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	ds, err := New("t", b.MustBuild(), make([]spatial.Point, 3), make([]bool, 3))
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumLocated() != 0 {
		t.Fatal("phantom located users")
	}
	if !math.IsInf(ds.EuclideanDist(0, 1), 1) {
		t.Fatal("unlocated distance finite")
	}
	pb := ds.PaddedBounds()
	if !(pb.MaxX > pb.MinX && pb.MaxY > pb.MinY) {
		t.Fatal("degenerate padded bounds")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, pts, located := mkRaw(t, rng, 60)
	ds, _ := New("round", g, pts, located)

	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ds2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Name != ds.Name || ds2.NumUsers() != ds.NumUsers() || ds2.G.NumEdges() != ds.G.NumEdges() {
		t.Fatalf("round trip mismatch: %+v vs %+v", ds2.Stats(), ds.Stats())
	}
	if math.Abs(ds2.Norms.Social-ds.Norms.Social) > 1e-9*ds.Norms.Social {
		t.Fatalf("social norm drifted: %v vs %v", ds2.Norms.Social, ds.Norms.Social)
	}
	for v := 0; v < 60; v++ {
		if ds2.Located[v] != ds.Located[v] {
			t.Fatalf("located flag %d drifted", v)
		}
		if ds.Located[v] {
			if ds.Pts[v].Dist(ds2.Pts[v]) > 1e-9 {
				t.Fatalf("point %d drifted", v)
			}
		}
	}
	// Graph distances must survive the round trip.
	d1 := ds.G.DistancesFrom(0)
	d2 := ds2.G.DistancesFrom(0)
	for v := range d1 {
		if math.Abs(d1[v]-d2[v]) > 1e-9 {
			t.Fatalf("distance %d drifted: %v vs %v", v, d1[v], d2[v])
		}
	}
	// An unlabeled dataset stays unlabeled through the round trip...
	if ds2.Labels != nil {
		t.Fatal("labels materialized out of nowhere")
	}
	// ...and a labeled one keeps its labels bit for bit.
	labels := make([]uint64, 60)
	for v := range labels {
		labels[v] = uint64(v) << uint(v%4)
	}
	if err := ds.SetLabels(labels); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ds3, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ds3.Labels == nil {
		t.Fatal("labels lost in round trip")
	}
	for v := range labels {
		if ds3.Labels[v] != labels[v] {
			t.Fatalf("label %d drifted: %#x vs %#x", v, ds3.Labels[v], labels[v])
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, pts, located := mkRaw(t, rng, 30)
	ds, _ := New("file", g, pts, located)
	path := t.TempDir() + "/ds.gob"
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ds2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.NumUsers() != 30 {
		t.Fatalf("loaded %d users", ds2.NumUsers())
	}
	if _, err := LoadFile(t.TempDir() + "/missing.gob"); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("garbage accepted")
	}
}
