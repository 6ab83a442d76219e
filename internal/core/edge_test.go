package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ssrq/internal/dataset"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// mkPathological builds datasets exercising corner cases.
func mkEdgelessDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	g := graph.NewBuilder(n).MustBuild()
	pts := make([]spatial.Point, n)
	located := make([]bool, n)
	for i := range pts {
		pts[i] = spatial.Point{X: float64(i), Y: float64(i % 3)}
		located[i] = true
	}
	ds, err := dataset.New("edgeless", g, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestEdgelessGraph(t *testing.T) {
	// No edges at all: every user is socially unreachable, so with
	// 0 < α < 1 every f is +Inf and results are empty.
	ds := mkEdgelessDataset(t, 20)
	e := mkEngine(t, ds, Options{NumLandmarks: 2})
	for _, algo := range allAlgorithms {
		res, err := e.Query(algo, 0, Params{K: 5, Alpha: 0.5})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res.Entries) != 0 {
			t.Fatalf("%v returned %d entries on an edgeless graph", algo, len(res.Entries))
		}
	}
}

func TestTwoUserDataset(t *testing.T) {
	b := graph.NewBuilder(2)
	_ = b.AddEdge(0, 1, 1)
	ds, err := dataset.New("pair", b.MustBuild(),
		[]spatial.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	e := mkEngine(t, ds, Options{NumLandmarks: 1})
	for _, algo := range allAlgorithms {
		res, err := e.Query(algo, 0, Params{K: 3, Alpha: 0.5})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res.Entries) != 1 || res.Entries[0].ID != 1 {
			t.Fatalf("%v: entries %+v", algo, res.Entries)
		}
	}
}

func TestAllUsersSamePoint(t *testing.T) {
	// Duplicate coordinates: spatial distances are all zero; ranking is
	// then purely social, and ties break deterministically.
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder(40)
	for v := 1; v < 40; v++ {
		_ = b.AddEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), 0.1+rng.Float64())
	}
	pts := make([]spatial.Point, 40)
	located := make([]bool, 40)
	for i := range pts {
		pts[i] = spatial.Point{X: 5, Y: 5}
		located[i] = true
	}
	ds, err := dataset.New("same-point", b.MustBuild(), pts, located)
	if err != nil {
		t.Fatal(err)
	}
	e := mkEngine(t, ds, Options{})
	want, _ := e.Query(BruteForce, 0, Params{K: 10, Alpha: 0.5})
	for _, algo := range allAlgorithms {
		got, err := e.Query(algo, 0, Params{K: 10, Alpha: 0.5})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		sameRanking(t, algo.String(), got, want)
	}
}

func TestOnlyQueryLocated(t *testing.T) {
	// Everyone except the query user is unlocated: d = +Inf for all, so all
	// f are +Inf and the result must be empty.
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(30)
	for v := 1; v < 30; v++ {
		_ = b.AddEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), 1)
	}
	pts := make([]spatial.Point, 30)
	located := make([]bool, 30)
	pts[0] = spatial.Point{X: 1, Y: 1}
	located[0] = true
	ds, err := dataset.New("lonely", b.MustBuild(), pts, located)
	if err != nil {
		t.Fatal(err)
	}
	e := mkEngine(t, ds, Options{})
	for _, algo := range allAlgorithms {
		res, err := e.Query(algo, 0, Params{K: 5, Alpha: 0.5})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res.Entries) != 0 {
			t.Fatalf("%v returned %d entries with no located peers", algo, len(res.Entries))
		}
	}
}

func TestStarGraphHub(t *testing.T) {
	// Query from the hub of a star: all users one hop away, heavy ties.
	n := 50
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(0, graph.VertexID(v), 0.5)
	}
	rng := rand.New(rand.NewSource(7))
	pts := make([]spatial.Point, n)
	located := make([]bool, n)
	for i := range pts {
		pts[i] = spatial.Point{X: rng.Float64(), Y: rng.Float64()}
		located[i] = true
	}
	ds, err := dataset.New("star", b.MustBuild(), pts, located)
	if err != nil {
		t.Fatal(err)
	}
	e := mkEngine(t, ds, Options{})
	want, _ := e.Query(BruteForce, 0, Params{K: 7, Alpha: 0.4})
	for _, algo := range allAlgorithms {
		got, err := e.Query(algo, 0, Params{K: 7, Alpha: 0.4})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		sameRanking(t, algo.String(), got, want)
	}
}

func TestTopKProperty(t *testing.T) {
	// Property: topK over any entry sequence equals sorting and truncating.
	check := func(fs []float64, k8 uint8) bool {
		k := int(k8%10) + 1
		r := newTopK(k)
		type pair struct {
			f  float64
			id int32
		}
		var want []pair
		for i, f := range fs {
			f = math.Abs(f)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			r.Consider(Entry{ID: int32(i), F: f})
			want = append(want, pair{f, int32(i)})
		}
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && (want[j].f < want[j-1].f || (want[j].f == want[j-1].f && want[j].id < want[j-1].id)); j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		if len(want) > k {
			want = want[:k]
		}
		got := r.Sorted()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].F != want[i].f || got[i].ID != want[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphDistMatchesDijkstraProperty(t *testing.T) {
	// The GraphDist submodule (Algorithm 3 + caching + UB seeding) must
	// return exact distances for arbitrary target sequences.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		ds := mkDataset(t, rng, 40+rng.Intn(80), 0, trial%2 == 1)
		e := mkEngine(t, ds, Options{})
		q := locatedUsers(ds)[0]
		want := ds.G.DistancesFrom(q)
		var st Stats
		pools := e.getPools()
		gd := newGraphDist(ds.G, e.Landmarks(), q, pools.rev, &st, 0.3, trial%4 < 2)
		for probe := 0; probe < 40; probe++ {
			v := graph.VertexID(rng.Intn(ds.NumUsers()))
			got, exact := gd.dist(v, 0, math.Inf(1))
			if !exact {
				t.Fatalf("trial %d: dist(%d→%d) stopped at a threshold it was not given", trial, q, v)
			}
			if math.Abs(got-want[v]) > 1e-9 && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("trial %d: dist(%d→%d) = %v, want %v", trial, q, v, got, want[v])
			}
		}
		e.putPools(pools)
	}
}

func TestGraphDistBetaMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := mkDataset(t, rng, 100, 0, false)
	e := mkEngine(t, ds, Options{})
	q := locatedUsers(ds)[0]
	var st Stats
	pools := e.getPools()
	defer e.putPools(pools)
	gd := newGraphDist(ds.G, e.Landmarks(), q, pools.rev, &st, 0.3, true)
	prev := gd.beta()
	for probe := 0; probe < 30; probe++ {
		gd.dist(graph.VertexID(rng.Intn(100)), 0, math.Inf(1))
		if b := gd.beta(); b < prev {
			t.Fatalf("beta decreased: %v -> %v", prev, b)
		} else {
			prev = b
		}
	}
}

func TestQuickCombineTerminatesOnSkewedData(t *testing.T) {
	// All users in a straight spatial line and a path graph socially:
	// extreme rates in both domains; TSA-QC must still terminate correctly.
	n := 60
	b := graph.NewBuilder(n)
	for v := 0; v < n-1; v++ {
		_ = b.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	pts := make([]spatial.Point, n)
	located := make([]bool, n)
	for i := range pts {
		pts[i] = spatial.Point{X: float64(i), Y: 0}
		located[i] = true
	}
	ds, err := dataset.New("line", b.MustBuild(), pts, located)
	if err != nil {
		t.Fatal(err)
	}
	e := mkEngine(t, ds, Options{})
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		want, _ := e.Query(BruteForce, 30, Params{K: 5, Alpha: alpha})
		got, err := e.Query(TSAQC, 30, Params{K: 5, Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "TSA-QC-line", got, want)
	}
}

func TestAISAcrossGridShapes(t *testing.T) {
	// The AIS result must be invariant to grid geometry.
	rng := rand.New(rand.NewSource(17))
	ds := mkDataset(t, rng, 120, 0.1, false)
	q := locatedUsers(ds)[2]
	prm := Params{K: 8, Alpha: 0.35}
	var first *Result
	for _, cfg := range []struct{ s, levels int }{{2, 1}, {3, 2}, {4, 3}, {10, 1}, {5, 2}} {
		e := mkEngine(t, ds, Options{GridS: cfg.s, GridLevels: cfg.levels})
		res, err := e.Query(AIS, q, prm)
		if err != nil {
			t.Fatalf("s=%d levels=%d: %v", cfg.s, cfg.levels, err)
		}
		if first == nil {
			first = res
			continue
		}
		sameRanking(t, "grid-shape", res, first)
	}
}

func TestResultEntriesConsistentDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ds := mkDataset(t, rng, 90, 0.1, false)
	e := mkEngine(t, ds, Options{})
	q := locatedUsers(ds)[0]
	res, err := e.Query(AIS, q, Params{K: 10, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	spAll := ds.G.DistancesFrom(q)
	for _, entry := range res.Entries {
		if math.Abs(entry.P-spAll[entry.ID]) > 1e-9 {
			t.Fatalf("entry %d: P=%v, true=%v", entry.ID, entry.P, spAll[entry.ID])
		}
		if math.Abs(entry.D-ds.EuclideanDist(int32(q), entry.ID)) > 1e-9 {
			t.Fatalf("entry %d: D wrong", entry.ID)
		}
	}
}
