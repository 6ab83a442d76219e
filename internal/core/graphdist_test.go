package core

import (
	"math"
	"math/rand"
	"testing"

	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
)

// distTol is the oracle tolerance for social distances: the reverse search
// sums a path's weights from the target's end and the reference Dijkstra from
// the query's, so equal paths may differ in the last few bits (DESIGN.md §4).
const distTol = 1e-12

// churnedWorld is a social graph as the serving path sees it after edge
// churn: overlay-patched rows, a removed bridge that leaves half the vertices
// unreachable from the other half, and a landmark set repaired under the
// given budget. A small budget disables landmarks (the bridge removal alone
// overruns it); the first reinstall of those are then rebuilt, as the
// background rebuild would.
func churnedWorld(t *testing.T, rng *rand.Rand, n, m, budget, steps, reinstall int) (*graph.Graph, *landmark.Set) {
	t.Helper()
	half := n / 2
	b := graph.NewBuilder(n)
	add := func(u, v int) {
		if u != v {
			_ = b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0.05+rng.Float64()*2)
		}
	}
	for v := 1; v < n; v++ { // a spanning tree per side
		if v < half {
			add(rng.Intn(v), v)
		} else if v > half {
			add(half+rng.Intn(v-half), v)
		}
	}
	for i := 0; i < 2*n; i++ { // extra edges, never across the sides
		u, v := rng.Intn(half), rng.Intn(half)
		if i%2 == 1 {
			u, v = half+rng.Intn(n-half), half+rng.Intn(n-half)
		}
		add(u, v)
	}
	bridgeU, bridgeV := graph.VertexID(rng.Intn(half)), graph.VertexID(half+rng.Intn(n-half))
	_ = b.AddEdge(bridgeU, bridgeV, 0.5)
	base := b.MustBuild()

	lm, err := landmark.Select(base, m, landmark.Farthest, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := landmark.NewDynamic(lm, budget)
	if err != nil {
		t.Fatal(err)
	}
	o := graph.NewOverlay(base)
	change := func(u, v graph.VertexID, w float64, remove bool) {
		oldW, had := o.EdgeWeight(u, v)
		if remove {
			if _, err := o.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
		} else if _, err := o.SetEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
		dyn.EdgeChanged(o.Working(), u, v, oldW, had, w, !remove)
	}
	for i := 0; i < steps; i++ { // upserts, reweights and removals inside one side
		lo, size := 0, half
		if rng.Intn(2) == 1 {
			lo, size = half, n-half
		}
		u, v := graph.VertexID(lo+rng.Intn(size)), graph.VertexID(lo+rng.Intn(size))
		if u == v {
			continue
		}
		_, had := o.EdgeWeight(u, v)
		change(u, v, 0.05+rng.Float64()*2, had && rng.Intn(2) == 0)
	}
	change(bridgeU, bridgeV, 0, true)
	g := o.Freeze()
	for j, v := range dyn.View().Vertices()[:reinstall] {
		if !dyn.View().Enabled(j) {
			dyn.InstallTable(j, g.DistancesFrom(v))
		}
	}
	return g, dyn.Commit()
}

// TestGraphDistThresholdDifferential is the differential test of the
// stopping rule: whatever the graph, the landmark health, the size of the
// forward ball when the evaluation starts and the threshold the caller
// passes, dist returns the exact distance or a threshold the exact distance
// provably reaches — and the path table it leaves behind holds only exact
// values.
func TestGraphDistThresholdDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	seenDisabled := map[string]int{}
	var exactCalls, boundedCalls, zeroPopStops int
	for trial := 0; trial < 24; trial++ {
		n := 40 + rng.Intn(100)
		var g *graph.Graph
		var lm *landmark.Set
		switch trial % 4 {
		case 0: // static random graph, possibly disconnected, every landmark healthy
			ds := mkDataset(t, rng, n, 0, trial%8 == 4)
			var err error
			if lm, err = landmark.Select(ds.G, 2+rng.Intn(6), landmark.Strategy(rng.Intn(3)), int64(trial)); err != nil {
				t.Fatal(err)
			}
			g = ds.G
		case 1: // churned, every landmark repaired
			g, lm = churnedWorld(t, rng, n, 4, 1<<30, 40, 0)
		case 2: // churned, every landmark disabled, half of them rebuilt
			g, lm = churnedWorld(t, rng, n, 6, 1, 40, 3)
		case 3: // churned, every landmark disabled
			g, lm = churnedWorld(t, rng, n, 3, 1, 60, 0)
		}
		switch lm.NumDisabled() {
		case 0:
			seenDisabled["none"]++
		case lm.M():
			seenDisabled["all"]++
		default:
			seenDisabled["some"]++
		}

		q := graph.VertexID(rng.Intn(n))
		truth := g.DistancesFrom(q)
		component := 0
		for _, p := range truth {
			if p < graph.Infinity {
				component++
			}
		}
		pool := graph.NewAStarPool(n)
		for _, ball := range []int{1, 2, 5, component / 4, component / 2, component - 1, component, component + 3} {
			alpha := 0.05 + 0.9*rng.Float64()
			bounded := rng.Intn(4) > 0
			var st Stats
			gd := newGraphDist(g, lm, q, pool, &st, alpha, bounded)
			gd.advance(ball - 1) // newGraphDist settles the source itself
			for probe := 0; probe < 12; probe++ {
				v := graph.VertexID(rng.Intn(n))
				d := rng.Float64()
				f := combine(alpha, truth[v], d)
				var fk float64
				switch rng.Intn(7) {
				case 0:
					fk = math.Inf(1)
				case 1:
					fk = f
				case 2:
					fk = math.Nextafter(f, math.Inf(-1))
				case 3:
					fk = math.Nextafter(f, math.Inf(1))
				case 4:
					fk = f * (0.2 + 0.75*rng.Float64())
				case 5:
					fk = f * (1.05 + rng.Float64())
				case 6:
					fk = rng.Float64() * 3 // unrelated to f; the only finite choice for unreachable v
				}
				if math.IsNaN(fk) || (math.IsInf(f, 1) && rng.Intn(2) == 0) {
					fk = rng.Float64() * 3
				}
				stops, pops := st.BoundedStops, st.ReversePops
				got, exact := gd.dist(v, d, fk)
				switch {
				case exact:
					exactCalls++
					if math.Abs(got-truth[v]) > distTol && !(math.IsInf(got, 1) && math.IsInf(truth[v], 1)) {
						t.Fatalf("trial %d ball %d: dist(%d→%d) = %v, want %v", trial, ball, q, v, got, truth[v])
					}
					if st.BoundedStops != stops {
						t.Fatalf("trial %d: an exact answer was counted as a bounded stop", trial)
					}
				case !bounded:
					t.Fatalf("trial %d: unbounded GraphDist stopped at a threshold (v=%d fk=%v)", trial, v, fk)
				default:
					boundedCalls++
					if st.ReversePops == pops {
						zeroPopStops++
					}
					if truth[v] < got-distTol {
						t.Fatalf("trial %d ball %d: dist(%d→%d) claims ≥ %v, truth %v (fk=%v f=%v)", trial, ball, q, v, got, truth[v], fk, f)
					}
					if combine(alpha, got, d) < fk || combine(alpha, math.Nextafter(got, math.Inf(-1)), d) >= fk {
						t.Fatalf("trial %d: reported threshold %v is not the smallest p with combine(p) ≥ fk=%v", trial, got, fk)
					}
					if fk > f+1e-9 {
						t.Fatalf("trial %d: candidate with f=%v discarded against fk=%v", trial, f, fk)
					}
					if st.BoundedStops != stops+1 {
						t.Fatalf("trial %d: bounded stop not counted", trial)
					}
				}
				for x, px := range gd.pathDist {
					if math.Abs(px-truth[x]) > distTol {
						t.Fatalf("trial %d ball %d: path table holds p(%d)=%v, truth %v (after v=%d fk=%v)", trial, ball, x, px, truth[x], v, fk)
					}
				}
				if st.ReversePops > st.SocialPops || st.SocialPops-st.ReversePops > component {
					t.Fatalf("trial %d: pop accounting off: %+v with a component of %d", trial, st, component)
				}
			}
		}
	}
	for _, kind := range []string{"none", "some", "all"} {
		if seenDisabled[kind] == 0 {
			t.Errorf("no trial ran with %s of its landmarks disabled: %v", kind, seenDisabled)
		}
	}
	if exactCalls == 0 || boundedCalls == 0 || zeroPopStops == 0 {
		t.Errorf("coverage: %d exact answers, %d bounded stops, %d of them without a pop", exactCalls, boundedCalls, zeroPopStops)
	}
}

// TestSocialThresholdIsSmallestPassingFloat pins τ's definition — the
// smallest p whose combine reaches fk, decided by combine itself — including
// the small-α regime where the algebraic solution is thousands of ulps off
// and a linear walk would not do.
func TestSocialThresholdIsSmallestPassingFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 20000; i++ {
		alpha := []float64{0.3, 0.02, 0.98, 1e-6, 1e-12, rng.Float64()}[i%6]
		if alpha == 0 {
			continue
		}
		d, fk := rng.Float64()*2, rng.Float64()*2
		if i%7 == 0 {
			fk = combine(alpha, rng.Float64(), d) // exactly reachable values: the tie case
		}
		tau := socialThreshold(alpha, d, fk)
		if combine(alpha, tau, d) < fk {
			t.Fatalf("α=%v d=%v fk=%v: combine(τ=%v) = %v < fk", alpha, d, fk, tau, combine(alpha, tau, d))
		}
		if below := math.Nextafter(tau, math.Inf(-1)); combine(alpha, below, d) >= fk {
			t.Fatalf("α=%v d=%v fk=%v: τ=%v is not the smallest, %v passes too", alpha, d, fk, tau, below)
		}
	}
	for _, c := range [][3]float64{{0.3, 0.5, math.Inf(1)}, {0.3, math.Inf(1), 0.4}, {0.3, math.Inf(1), math.Inf(1)}} {
		if tau := socialThreshold(c[0], c[1], c[2]); !math.IsInf(tau, 1) {
			t.Errorf("socialThreshold(%v, %v, %v) = %v, want +Inf", c[0], c[1], c[2], tau)
		}
	}
}

// TestPaperOrderingAsPopCounts makes the shape of Figs 8 and 10 a tier-1
// fact: on a fixed dataset and fixed queries the pop counts repeat exactly,
// so AIS < TSA < SFA and AIS-BID > AIS⁻ > AIS are assertions, not timings.
func TestPaperOrderingAsPopCounts(t *testing.T) {
	ds, err := gen.GowallaPreset.Dataset(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	users := locatedUsers(ds)
	prm := Params{K: 30, Alpha: 0.3}
	const queries = 40
	meanPops := func(algo Algorithm, count int) float64 {
		total := 0
		for i := 0; i < count; i++ {
			q := users[i*len(users)/queries]
			res, err := e.Query(algo, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Stats.Pops()
		}
		return float64(total) / float64(count)
	}
	ais, tsa, sfa := meanPops(AIS, queries), meanPops(TSA, queries), meanPops(SFA, queries)
	aisMinus := meanPops(AISMinus, queries)
	// AIS-BID costs tens of thousands of pops a query; a quarter of the
	// queries is plenty to place it.
	aisBID, aisFew, aisMinusFew := meanPops(AISBID, queries/4), meanPops(AIS, queries/4), meanPops(AISMinus, queries/4)
	t.Logf("mean pops/query: AIS %.0f  TSA %.0f  SFA %.0f  AIS⁻ %.0f | first %d queries: AIS-BID %.0f  AIS⁻ %.0f  AIS %.0f",
		ais, tsa, sfa, aisMinus, queries/4, aisBID, aisMinusFew, aisFew)
	if !(ais < tsa && tsa < sfa) {
		t.Errorf("Fig. 8 ordering lost: want AIS < TSA < SFA, got %.0f, %.0f, %.0f", ais, tsa, sfa)
	}
	if !(aisMinus > ais && aisBID > aisMinusFew && aisMinusFew > aisFew) {
		t.Errorf("Fig. 10 ordering lost: want AIS-BID > AIS⁻ > AIS, got %.0f > %.0f > %.0f (AIS⁻ %.0f vs AIS %.0f on all queries)",
			aisBID, aisMinusFew, aisFew, aisMinus, ais)
	}
}
