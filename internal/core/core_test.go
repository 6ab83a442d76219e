package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ssrq/internal/dataset"
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
	"ssrq/internal/spatial"
)

// mkDataset builds a random geo-social dataset. disconnect splits the graph
// into two components; unlocated is the fraction of users without location.
func mkDataset(t testing.TB, rng *rand.Rand, n int, unlocated float64, disconnect bool) *dataset.Dataset {
	t.Helper()
	b := graph.NewBuilder(n)
	half := n / 2
	sameSide := func(u, v int) bool { return (u < half) == (v < half) }
	for v := 1; v < n; v++ {
		if disconnect && v == half {
			continue
		}
		u := rng.Intn(v)
		if disconnect && !sameSide(u, v) {
			if v < half {
				u = rng.Intn(v)
			} else {
				u = half + rng.Intn(v-half)
			}
			if u == v {
				continue
			}
		}
		_ = b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0.05+rng.Float64()*2)
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || (disconnect && !sameSide(u, v)) {
			continue
		}
		_ = b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0.05+rng.Float64()*2)
	}
	g := b.MustBuild()
	pts := make([]spatial.Point, n)
	located := make([]bool, n)
	for i := range pts {
		pts[i] = spatial.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		located[i] = rng.Float64() >= unlocated
	}
	ds, err := dataset.New("test", g, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mkEngine(t testing.TB, ds *dataset.Dataset, opts Options) *Engine {
	t.Helper()
	if opts.GridS == 0 {
		opts.GridS = 4
	}
	if opts.GridLevels == 0 {
		opts.GridLevels = 2
	}
	if opts.NumLandmarks == 0 {
		opts.NumLandmarks = 4
	}
	e, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// withCache sets the engine's §5.4 list length t (AIS-Cache).
func withCache(e *Engine, t int) *Engine {
	e.ResetCache(t)
	return e
}

func locatedUsers(ds *dataset.Dataset) []graph.VertexID {
	var out []graph.VertexID
	for v := 0; v < ds.NumUsers(); v++ {
		if ds.Located[v] {
			out = append(out, graph.VertexID(v))
		}
	}
	return out
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{{K: 0, Alpha: 0.5}, {K: -1, Alpha: 0.5}, {K: 3, Alpha: 0}, {K: 3, Alpha: 1}, {K: 3, Alpha: -0.1}, {K: 3, Alpha: 1.5}, {K: 3, Alpha: math.NaN()}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Params %+v accepted", p)
		}
	}
	if err := (Params{K: 1, Alpha: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopKBasics(t *testing.T) {
	r := newTopK(3)
	if r.Fk() != math.Inf(1) {
		t.Fatal("empty Fk not +Inf")
	}
	if r.Consider(Entry{ID: 1, F: math.Inf(1)}) {
		t.Fatal("infinite f admitted")
	}
	if r.Consider(Entry{ID: 1, F: math.NaN()}) {
		t.Fatal("NaN f admitted")
	}
	for _, e := range []Entry{{ID: 5, F: 5}, {ID: 2, F: 2}, {ID: 9, F: 9}} {
		if !r.Consider(e) {
			t.Fatalf("entry %+v rejected while not full", e)
		}
	}
	if r.Fk() != 9 {
		t.Fatalf("Fk = %v", r.Fk())
	}
	if r.Consider(Entry{ID: 10, F: 9}) { // ties on F break by ID: 10 > 9 loses
		t.Fatal("equal-f higher-id admitted")
	}
	if !r.Consider(Entry{ID: 8, F: 9}) { // same F, lower ID wins
		t.Fatal("equal-f lower-id rejected")
	}
	got := r.Sorted()
	if got[0].ID != 2 || got[1].ID != 5 || got[2].ID != 8 {
		t.Fatalf("Sorted = %+v", got)
	}
}

func TestEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := mkDataset(t, rng, 40, 0.2, false)
	e := mkEngine(t, ds, Options{})
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := e.Query(SFA, -1, Params{K: 3, Alpha: 0.5}); err == nil {
		t.Fatal("negative query user accepted")
	}
	if _, err := e.Query(SFA, 1000, Params{K: 3, Alpha: 0.5}); err == nil {
		t.Fatal("out-of-range query user accepted")
	}
	if _, err := e.Query(SFA, 0, Params{K: 0, Alpha: 0.5}); err == nil {
		t.Fatal("bad params accepted")
	}
	var unloc graph.VertexID = -1
	for v := 0; v < ds.NumUsers(); v++ {
		if !ds.Located[v] {
			unloc = graph.VertexID(v)
			break
		}
	}
	if unloc >= 0 {
		if _, err := e.Query(SFA, unloc, Params{K: 3, Alpha: 0.5}); err == nil {
			t.Fatal("unlocated query user accepted")
		}
	}
	if _, err := e.Query(Algorithm(99), locatedUsers(ds)[0], Params{K: 3, Alpha: 0.5}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// sameRanking asserts two results agree on the f-value sequence (identical
// multisets up to float tolerance). IDs may differ only within exact ties.
func sameRanking(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("%s: %d entries, want %d", label, len(got.Entries), len(want.Entries))
	}
	for i := range got.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if math.Abs(g.F-w.F) > 1e-9 {
			t.Fatalf("%s: rank %d f = %v, want %v", label, i, g.F, w.F)
		}
		// Where f values are strictly distinct, the IDs must match exactly.
		if g.ID != w.ID && math.Abs(g.F-w.F) > 1e-12 {
			t.Fatalf("%s: rank %d id = %d, want %d (f %v vs %v)", label, i, g.ID, w.ID, g.F, w.F)
		}
		// The reported decomposition must be internally consistent.
		if math.Abs(combine(got.Params.Alpha, g.P, g.D)-g.F) > 1e-9 {
			t.Fatalf("%s: rank %d f != α·p+(1-α)·d", label, i)
		}
	}
}

// allAlgorithms is every Algorithm but BruteForce, the oracle they are
// checked against.
var allAlgorithms = []Algorithm{SFA, SPA, TSA, TSAQC, TSANoLandmark, AISBID, AISMinus, AIS, AISCache}

func TestAllAlgorithmsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 30 + rng.Intn(120)
		ds := mkDataset(t, rng, n, 0.15*rng.Float64(), trial%3 == 2)
		opts := Options{GridS: 3 + rng.Intn(4), GridLevels: 1 + rng.Intn(2), Seed: int64(trial)}
		e := withCache(mkEngine(t, ds, opts), 5+rng.Intn(30))
		users := locatedUsers(ds)
		for probe := 0; probe < 6; probe++ {
			q := users[rng.Intn(len(users))]
			prm := Params{K: 1 + rng.Intn(12), Alpha: 0.05 + 0.9*rng.Float64()}
			want, err := e.Query(BruteForce, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range allAlgorithms {
				got, err := e.Query(algo, q, prm)
				if err != nil {
					t.Fatalf("trial %d %v: %v", trial, algo, err)
				}
				sameRanking(t, algo.String(), got, want)
			}
		}
	}
}

// TestRandomizedEquivalenceProperty is the property-style sweep: across
// random seeds, dataset shapes, engine options (grid granularity/levels,
// landmark count and strategy, cache size) and
// query parameters (k, α), every Algorithm variant must return the same
// f-score ranking as BruteForce. This is the contract the serving layer
// leans on: algorithm choice is a performance knob, never a correctness one.
func TestRandomizedEquivalenceProperty(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			n := 25 + rng.Intn(100)
			ds := mkDataset(t, rng, n, 0.25*rng.Float64(), trial%4 == 3)
			opts := Options{
				GridS:            2 + rng.Intn(6),
				GridLevels:       1 + rng.Intn(3),
				NumLandmarks:     2 + rng.Intn(10),
				LandmarkStrategy: landmark.Strategy(rng.Intn(3)),
				Seed:             int64(trial),
			}
			rng.Intn(4) // a deleted option's draw, kept so every later draw (cache size, queries) stays put
			e := withCache(mkEngine(t, ds, opts), 2+rng.Intn(50))
			users := locatedUsers(ds)
			for probe := 0; probe < 5; probe++ {
				q := users[rng.Intn(len(users))]
				prm := Params{K: 1 + rng.Intn(15), Alpha: 0.02 + 0.96*rng.Float64()}
				want, err := e.Query(BruteForce, q, prm)
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range allAlgorithms {
					got, err := e.Query(algo, q, prm)
					if err != nil {
						t.Fatalf("%v (q=%d k=%d α=%.3f): %v", algo, q, prm.K, prm.Alpha, err)
					}
					sameRanking(t, fmt.Sprintf("%v (q=%d k=%d α=%.3f)", algo, q, prm.K, prm.Alpha), got, want)
				}
			}
		})
	}
}

func TestResultIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := mkDataset(t, rng, 80, 0.1, false)
	e := mkEngine(t, ds, Options{})
	q := locatedUsers(ds)[3]
	prm := Params{K: 10, Alpha: 0.3}
	for _, algo := range allAlgorithms {
		a, err := e.Query(algo, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Query(algo, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Entries) != len(b.Entries) {
			t.Fatalf("%v: nondeterministic sizes", algo)
		}
		for i := range a.Entries {
			if a.Entries[i] != b.Entries[i] {
				t.Fatalf("%v: nondeterministic entry %d", algo, i)
			}
		}
	}
}

func TestKLargerThanPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds := mkDataset(t, rng, 25, 0.3, true)
	e := mkEngine(t, ds, Options{})
	q := locatedUsers(ds)[0]
	prm := Params{K: 500, Alpha: 0.4}
	want, _ := e.Query(BruteForce, q, prm)
	for _, algo := range allAlgorithms {
		got, err := e.Query(algo, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, algo.String(), got, want)
		if len(got.Entries) >= 25 {
			t.Fatalf("%v returned %d entries for 25-user dataset", algo, len(got.Entries))
		}
	}
}

func TestExtremeAlphas(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ds := mkDataset(t, rng, 70, 0.1, false)
	e := mkEngine(t, ds, Options{})
	users := locatedUsers(ds)
	for _, alpha := range []float64{0.001, 0.999} {
		q := users[1]
		prm := Params{K: 5, Alpha: alpha}
		want, err := e.Query(BruteForce, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range allAlgorithms {
			got, err := e.Query(algo, q, prm)
			if err != nil {
				t.Fatalf("alpha=%v %v: %v", alpha, algo, err)
			}
			sameRanking(t, algo.String(), got, want)
		}
	}
}

func TestAISCacheCompleteAndFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ds := mkDataset(t, rng, 60, 0, false)
	// Tiny t forces the fallback path.
	small := withCache(mkEngine(t, ds, Options{}), 2)
	q := locatedUsers(ds)[0]
	prm := Params{K: 15, Alpha: 0.5}
	res, err := small.Query(AISCache, q, prm)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.FellBack {
		t.Fatal("tiny cache did not fall back")
	}
	// Huge t covers the whole component: no fallback.
	big := withCache(mkEngine(t, ds, Options{}), 100000)
	res2, err := big.Query(AISCache, q, prm)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.FellBack {
		t.Fatal("complete cache fell back")
	}
	want, _ := big.Query(BruteForce, q, prm)
	sameRanking(t, "AISCache-small", res, want)
	sameRanking(t, "AISCache-big", res2, want)
}

func TestStatsInstrumentation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ds := mkDataset(t, rng, 150, 0.05, false)
	e := mkEngine(t, ds, Options{})
	q := locatedUsers(ds)[5]
	prm := Params{K: 10, Alpha: 0.3}

	sfa, _ := e.Query(SFA, q, prm)
	if sfa.Stats.SocialPops == 0 || sfa.Stats.SpatialPops != 0 {
		t.Fatalf("SFA stats: %+v", sfa.Stats)
	}
	spa, _ := e.Query(SPA, q, prm)
	if spa.Stats.SpatialPops == 0 {
		t.Fatalf("SPA stats: %+v", spa.Stats)
	}
	tsa, _ := e.Query(TSA, q, prm)
	if tsa.Stats.SocialPops == 0 || tsa.Stats.SpatialPops == 0 {
		t.Fatalf("TSA stats: %+v", tsa.Stats)
	}
	ais, _ := e.Query(AIS, q, prm)
	if ais.Stats.IndexUserPops == 0 || ais.Stats.IndexCellPops == 0 || ais.Stats.GraphDistCalls == 0 {
		t.Fatalf("AIS stats: %+v", ais.Stats)
	}
	if ais.Stats.PopRatio(ds.NumUsers()) <= 0 {
		t.Fatal("AIS pop ratio not positive")
	}
	brute, _ := e.Query(BruteForce, q, prm)
	if brute.Stats.Pops() < ds.NumUsers() {
		t.Fatalf("brute pops %d < n", brute.Stats.Pops())
	}
}

func TestAISDelayedEvaluationReducesDistCalls(t *testing.T) {
	// Across many queries, AIS (with delayed evaluation) must not need more
	// exact distance evaluations than AIS⁻ in aggregate.
	rng := rand.New(rand.NewSource(31))
	ds := mkDataset(t, rng, 300, 0.05, false)
	e := mkEngine(t, ds, Options{GridS: 5})
	users := locatedUsers(ds)
	prm := Params{K: 10, Alpha: 0.3}
	var callsMinus, callsFull, reinserts int
	for i := 0; i < 25; i++ {
		q := users[rng.Intn(len(users))]
		m, _ := e.Query(AISMinus, q, prm)
		f, _ := e.Query(AIS, q, prm)
		callsMinus += m.Stats.GraphDistCalls
		callsFull += f.Stats.GraphDistCalls
		reinserts += f.Stats.Reinserts
	}
	if callsFull > callsMinus {
		t.Fatalf("delayed evaluation increased exact evaluations: %d > %d", callsFull, callsMinus)
	}
	if reinserts == 0 {
		t.Log("note: no reinsert was triggered on this workload")
	}
}

func TestMoveUserChangesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ds := mkDataset(t, rng, 100, 0, false)
	e := mkEngine(t, ds, Options{})
	users := locatedUsers(ds)
	q := users[0]
	prm := Params{K: 5, Alpha: 0.2} // heavily spatial
	// Teleport a non-result user onto the query point: with α this spatial
	// it must enter the result.
	var outsider graph.VertexID = -1
	before, _ := e.Query(AIS, q, prm)
	inResult := before.IDSet()
	for _, u := range users {
		if u != q && !inResult[int32(u)] {
			outsider = u
			break
		}
	}
	if outsider < 0 {
		t.Skip("no outsider available")
	}
	if err := moveUser(e, outsider, e.ds.Pts[q]); err != nil {
		t.Fatal(err)
	}
	after, err := e.Query(AIS, q, prm)
	if err != nil {
		t.Fatal(err)
	}
	if !after.IDSet()[int32(outsider)] {
		t.Fatalf("moved user %d not in result %v", outsider, after.Entries)
	}
	// All algorithms must agree post-move.
	want, _ := e.Query(BruteForce, q, prm)
	for _, algo := range allAlgorithms {
		got, err := e.Query(algo, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, algo.String(), got, want)
	}
}

func TestRemoveLocationExcludesUser(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ds := mkDataset(t, rng, 60, 0, false)
	e := mkEngine(t, ds, Options{})
	q := locatedUsers(ds)[0]
	prm := Params{K: 3, Alpha: 0.5}
	before, _ := e.Query(AIS, q, prm)
	if len(before.Entries) == 0 {
		t.Skip("empty result")
	}
	victim := before.Entries[0].ID
	if err := removeUserLocation(e, victim); err != nil {
		t.Fatal(err)
	}
	after, _ := e.Query(AIS, q, prm)
	if after.IDSet()[victim] {
		t.Fatalf("unlocated user %d still reported", victim)
	}
	want, _ := e.Query(BruteForce, q, prm)
	sameRanking(t, "AIS-after-remove", after, want)
}

// TestMovesOffTheGridStayExact: the grid clamps a point outside the
// construction-time bounds into a border cell, so every cell-level spatial
// bound must treat border cells as running outward without limit
// (Layout.CellMinDist). Measured against the cell's own rectangle the bound
// overestimates the distance to such a user, and every search driven by cell
// bounds loses them — identically in both twins of a differential test, so
// only a by-definition oracle sees it.
func TestMovesOffTheGridStayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ds := mkDataset(t, rng, 200, 0.1, false)
	e := mkEngine(t, ds, Options{})
	b, _ := spatial.BoundingRect(ds.Pts, ds.Located)
	users := locatedUsers(ds)
	// A third of the population leaves the bounding box, on every side and
	// past every corner, by up to its own width.
	for i, u := range users {
		if i%3 != 0 {
			continue
		}
		dx := (rng.Float64()*3 - 1) * b.Width()
		dy := (rng.Float64()*3 - 1) * b.Height()
		if err := moveUser(e, u, spatial.Point{X: b.MinX + dx, Y: b.MinY + dy}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range users[:40] {
		for _, alpha := range []float64{0.1, 0.4, 0.8} {
			prm := Params{K: 8, Alpha: alpha}
			want, err := e.Query(BruteForce, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range allAlgorithms {
				got, err := e.Query(algo, q, prm)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, fmt.Sprintf("%v q=%d α=%.1f", algo, q, alpha), got, want)
			}
		}
	}
}

func TestResultAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ds := mkDataset(t, rng, 50, 0, false)
	e := mkEngine(t, ds, Options{})
	q := locatedUsers(ds)[0]
	res, err := e.Query(AIS, q, Params{K: 5, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	set := res.IDSet()
	if len(set) != len(res.Entries) {
		t.Fatal("accessor sizes wrong")
	}
	for _, en := range res.Entries {
		id := en.ID
		if !set[id] {
			t.Fatal("IDSet missing reported id")
		}
		if id == int32(q) {
			t.Fatal("query user reported in its own result")
		}
	}
	for i := 1; i < len(res.Entries); i++ {
		if entryLess(res.Entries[i], res.Entries[i-1]) {
			t.Fatal("entries not sorted")
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if SFA.String() != "SFA" || AIS.String() != "AIS" || TSAQC.String() != "TSA-QC" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm has empty name")
	}
}

func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ds := mkDataset(t, rng, 200, 0.05, false)
	e := mkEngine(t, ds, Options{})
	users := locatedUsers(ds)
	prm := Params{K: 8, Alpha: 0.3}
	want := make([]*Result, 16)
	for i := range want {
		w, err := e.Query(AIS, users[i%len(users)], prm)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			got, err := e.Query(AIS, users[i%len(users)], prm)
			if err != nil {
				done <- err
				return
			}
			for j := range got.Entries {
				if got.Entries[j] != want[i].Entries[j] {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent query result mismatch" }
