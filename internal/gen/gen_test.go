package gen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ssrq/internal/graph"
)

func TestBarabasiAlbertShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges, err := BarabasiAlbert(500, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(500, edges, UniformWeights(edges, 0.1, 1, rng))
	if err != nil {
		t.Fatal(err)
	}
	if avg := g.AvgDegree(); avg < 6 || avg > 9 {
		t.Fatalf("BA avg degree %v, want ≈ 8", avg)
	}
	// Heavy tail: max degree far above average.
	if g.MaxDegree() < 3*int(g.AvgDegree()) {
		t.Fatalf("BA max degree %d not heavy-tailed (avg %v)", g.MaxDegree(), g.AvgDegree())
	}
	// BA graphs are connected by construction.
	if _, count := g.ConnectedComponents(); count != 1 {
		t.Fatalf("BA graph has %d components", count)
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := BarabasiAlbert(1, 1, rng); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := BarabasiAlbert(10, 0, rng); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := BarabasiAlbert(10, 10, rng); err == nil {
		t.Fatal("m=n accepted")
	}
}

func TestForestFireGrowthConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges, err := ForestFireGrowth(400, 0.35, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(400, edges, UniformWeights(edges, 0.1, 1, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, count := g.ConnectedComponents(); count != 1 {
		t.Fatalf("forest fire graph has %d components", count)
	}
	if _, err := ForestFireGrowth(400, 1.0, rng); err == nil {
		t.Fatal("p=1 accepted")
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	edges, err := WattsStrogatz(200, 3, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(200, edges, UniformWeights(edges, 0.1, 1, rng))
	if err != nil {
		t.Fatal(err)
	}
	if avg := g.AvgDegree(); avg < 4 || avg > 6.5 {
		t.Fatalf("WS avg degree %v, want ≈ 6", avg)
	}
	if _, err := WattsStrogatz(4, 2, 0.1, rng); err == nil {
		t.Fatal("2k>=n accepted")
	}
}

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges, err := ErdosRenyi(300, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(300, edges, UniformWeights(edges, 0.1, 1, rng))
	if err != nil {
		t.Fatal(err)
	}
	if avg := g.AvgDegree(); avg < 6.5 || avg > 8.5 {
		t.Fatalf("ER avg degree %v, want ≈ 8", avg)
	}
}

func TestDegreeProductWeights(t *testing.T) {
	// Triangle plus pendant: degrees 3,2,2,1.
	edges := []edge{{0, 1}, {0, 2}, {1, 2}, {0, 3}}
	ws := DegreeProductWeights(4, edges)
	// maxdeg = 3; w(0,1) = 3*2/9, w(1,2) = 2*2/9, w(0,3) = 3*1/9.
	want := []float64{6.0 / 9, 6.0 / 9, 4.0 / 9, 3.0 / 9}
	for i := range ws {
		if math.Abs(ws[i]-want[i]) > 1e-12 {
			t.Fatalf("weight[%d] = %v, want %v", i, ws[i], want[i])
		}
		if ws[i] <= 0 {
			t.Fatalf("non-positive weight %v", ws[i])
		}
	}
	// Hubs get the heaviest (loosest) edges — the paper's intent.
	if ws[0] <= ws[3] {
		t.Fatal("hub edge not looser than pendant edge")
	}
}

func TestLocationsFractionAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	edges, _ := BarabasiAlbert(1000, 3, rng)
	g, _ := BuildGraph(1000, edges, UniformWeights(edges, 0.1, 1, rng))
	pts, located, err := Locations(g, LocationConfig{LocatedFrac: 0.6, Homophily: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cnt := 0
	for i, l := range located {
		if !l {
			continue
		}
		cnt++
		if pts[i].X < 0 || pts[i].X > 1 || pts[i].Y < 0 || pts[i].Y > 1 {
			t.Fatalf("point %d outside unit square: %v", i, pts[i])
		}
	}
	if frac := float64(cnt) / 1000; frac < 0.5 || frac > 0.7 {
		t.Fatalf("located fraction %v, want ≈ 0.6", frac)
	}
	if _, _, err := Locations(g, LocationConfig{LocatedFrac: 2}, rng); err == nil {
		t.Fatal("bad fraction accepted")
	}
	if _, _, err := Locations(g, LocationConfig{Homophily: -1}, rng); err == nil {
		t.Fatal("bad homophily accepted")
	}
}

func TestHomophilyCreatesSpatialCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges, _ := BarabasiAlbert(800, 4, rng)
	g, _ := BuildGraph(800, edges, UniformWeights(edges, 0.1, 1, rng))

	avgFriendDist := func(homophily float64, seed int64) float64 {
		r := rand.New(rand.NewSource(seed))
		pts, located, err := Locations(g, LocationConfig{LocatedFrac: 1, Homophily: homophily}, r)
		if err != nil {
			t.Fatal(err)
		}
		sum, cnt := 0.0, 0
		for v := 0; v < 800; v++ {
			nbrs, _ := g.Neighbors(graph.VertexID(v))
			for _, u := range nbrs {
				if u > graph.VertexID(v) && located[v] && located[u] {
					sum += pts[v].Dist(pts[u])
					cnt++
				}
			}
		}
		return sum / float64(cnt)
	}
	with := avgFriendDist(0.8, 100)
	without := avgFriendDist(0, 100)
	if with >= without {
		t.Fatalf("homophily did not reduce friend distance: %v >= %v", with, without)
	}
}

func TestCorrelatedLocations(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	edges, _ := BarabasiAlbert(300, 4, rng)
	g, _ := BuildGraph(300, edges, DegreeProductWeights(300, edges))
	q := graph.VertexID(5)
	dist := g.DistancesFrom(q)
	maxD := 0.0
	for _, d := range dist {
		if d != graph.Infinity && d > maxD {
			maxD = d
		}
	}

	check := func(sign CorrelationSign, wantSign float64) {
		r := rand.New(rand.NewSource(9))
		pts, located := CorrelatedLocations(g, q, sign, r)
		for _, l := range located {
			if !l {
				t.Fatal("correlated synthesis left unlocated users")
			}
		}
		// Pearson correlation between p and spatial distance from q.
		var sp, sd, spp, sdd, spd float64
		n := 0.0
		for v := 0; v < 300; v++ {
			if graph.VertexID(v) == q || dist[v] == graph.Infinity {
				continue
			}
			p := dist[v] / maxD
			d := pts[v].Dist(pts[q])
			sp += p
			sd += d
			spp += p * p
			sdd += d * d
			spd += p * d
			n++
		}
		cov := spd/n - (sp/n)*(sd/n)
		varP := spp/n - (sp/n)*(sp/n)
		varD := sdd/n - (sd/n)*(sd/n)
		r2 := cov / math.Sqrt(varP*varD)
		switch {
		case wantSign > 0 && r2 < 0.5:
			t.Fatalf("%v: correlation %v, want strongly positive", sign, r2)
		case wantSign < 0 && r2 > -0.5:
			t.Fatalf("%v: correlation %v, want strongly negative", sign, r2)
		case wantSign == 0 && math.Abs(r2) > 0.25:
			t.Fatalf("%v: correlation %v, want ≈ 0", sign, r2)
		}
	}
	check(PositiveCorrelation, 1)
	check(NegativeCorrelation, -1)
	check(IndependentCorrelation, 0)
}

func TestForestFireSample(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	edges, _ := BarabasiAlbert(1000, 4, rng)
	g, _ := BuildGraph(1000, edges, DegreeProductWeights(1000, edges))
	sub, oldIDs, err := ForestFireSample(g, 300, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 300 || len(oldIDs) != 300 {
		t.Fatalf("sample size %d", sub.NumVertices())
	}
	// The mapping must be strictly increasing (deterministic renumbering)
	// and reference distinct originals.
	for i := 1; i < len(oldIDs); i++ {
		if oldIDs[i] <= oldIDs[i-1] {
			t.Fatal("oldIDs not strictly increasing")
		}
	}
	// Every sampled edge must exist in the original with the same weight.
	for v := 0; v < 300; v++ {
		nbrs, ws := sub.Neighbors(graph.VertexID(v))
		for i, u := range nbrs {
			w0, ok := g.EdgeWeight(oldIDs[v], oldIDs[u])
			if !ok || math.Abs(w0-ws[i]) > 1e-12 {
				t.Fatalf("sampled edge (%d,%d) missing or reweighted", v, u)
			}
		}
	}
	// Structure preservation (loose): sampled avg degree within 4x of original.
	if sub.AvgDegree() < g.AvgDegree()/4 {
		t.Fatalf("sample too sparse: %v vs %v", sub.AvgDegree(), g.AvgDegree())
	}
	if _, _, err := ForestFireSample(g, 0, 0.4, rng); err == nil {
		t.Fatal("target 0 accepted")
	}
	if _, _, err := ForestFireSample(g, 10, 1.5, rng); err == nil {
		t.Fatal("p>1 accepted")
	}
}

func TestPresets(t *testing.T) {
	all := []Preset{GowallaPreset, FoursquarePreset, TwitterPreset, UrbanPreset, HomophilyPreset}
	type row struct {
		preset Preset
		n      int
		// shape asks for the preset's located fraction and degree regime;
		// complete asks for every pair linked (the world is smaller than
		// the preset's degree allows).
		shape, complete bool
	}
	rows := []row{
		{preset: GowallaPreset, n: 600, shape: true},
		{preset: FoursquarePreset, n: 600, shape: true},
		{preset: TwitterPreset, n: 600, shape: true},
		{preset: TwitterPreset, n: 29, complete: true},
	}
	for _, p := range all {
		rows = append(rows, row{preset: p, n: 10, complete: p.Name == "twitter"})
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s/n=%d", r.preset.Name, r.n)
		ds, err := r.preset.Dataset(r.n, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := ds.Stats()
		if st.NumVertices != r.n {
			t.Fatalf("%s: %d users", name, st.NumVertices)
		}
		if r.complete && st.NumEdges != r.n*(r.n-1)/2 {
			t.Fatalf("%s: %d edges, want the complete graph's %d", name, st.NumEdges, r.n*(r.n-1)/2)
		}
		if !r.shape {
			continue
		}
		wantFrac := r.preset.LocatedFrac
		gotFrac := float64(st.NumLocated) / float64(r.n)
		if math.Abs(gotFrac-wantFrac) > 0.1 {
			t.Fatalf("%s: located %v, want ≈ %v", name, gotFrac, wantFrac)
		}
		// Average degree lands in the right regime (merging models adds
		// some edges over the BA target).
		if st.AvgDegree < r.preset.AvgDegreeTarget/2 || st.AvgDegree > r.preset.AvgDegreeTarget*2 {
			t.Fatalf("%s: avg degree %v, target %v", name, st.AvgDegree, r.preset.AvgDegreeTarget)
		}
	}
	if _, err := GowallaPreset.Dataset(5, 1); err == nil {
		t.Fatal("tiny n accepted")
	}
}

func TestPresetsDeterministic(t *testing.T) {
	a, err := GowallaPreset.Dataset(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GowallaPreset.Dataset(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for v := 0; v < 300; v++ {
		if a.Located[v] != b.Located[v] || (a.Located[v] && a.Pts[v] != b.Pts[v]) {
			t.Fatalf("same seed produced different locations at %d", v)
		}
	}
	c, err := GowallaPreset.Dataset(300, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The edge count is nearly deterministic for the geo-social model, so
	// compare the diameter estimate and a located user's position instead.
	same := a.Norms.Social == c.Norms.Social
	for v := 0; same && v < 300; v++ {
		if a.Located[v] && c.Located[v] {
			same = a.Pts[v] == c.Pts[v]
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical dataset")
	}
}

func TestCorrelatedDataset(t *testing.T) {
	base, err := GowallaPreset.Dataset(300, 11)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := CorrelatedDataset(base, 3, PositiveCorrelation, 12)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumLocated() != 300 {
		t.Fatalf("correlated dataset located %d, want all", ds.NumLocated())
	}
	if ds.G.NumEdges() != base.G.NumEdges() {
		t.Fatal("correlated dataset changed the graph")
	}
}

func TestSampledDataset(t *testing.T) {
	base, err := FoursquarePreset.Dataset(800, 13)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := SampledDataset(base, 200, 14)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumUsers() != 200 {
		t.Fatalf("sampled %d users", ds.NumUsers())
	}
}
