package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
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
// unreachable from the other half, and m landmarks chosen by strategy on the
// bridged graph, their tables maintained through the churn as one batch. The
// first landmark's user then drops every tie. The tables stay exact; the
// churn only makes them weak. With m = 1 the one landmark reaches nobody
// else, so every query runs with a heuristic of zero, and one across the
// removed bridge searches its whole component out.
func churnedWorld(t *testing.T, rng *rand.Rand, n, m int, strategy landmark.Strategy, steps int) (*graph.Graph, *landmark.Set) {
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

	lm, err := landmark.Select(base, m, strategy, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	dyn := landmark.NewDynamic(lm)
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
	loner := lm.Vertices()[0]
	nbrs, _ := o.Working().Neighbors(loner)
	for _, y := range slices.Clone(nbrs) {
		change(loner, y, 0, true)
	}
	g := o.Freeze()
	lm, _ = dyn.Commit(g, nil)
	return g, lm
}

// blind reports whether no landmark reaches q, so that every landmark bound
// between q and a vertex of its component is zero.
func blind(lm *landmark.Set, q graph.VertexID) bool {
	for j := 0; j < lm.M(); j++ {
		if lm.VertexRow(q)[j] < graph.Infinity {
			return false
		}
	}
	return true
}

// TestGraphDistThresholdDifferential is the differential test of the
// stopping rule: whatever the graph, the strength of the landmark set, the
// size of the forward ball when the evaluation starts and the threshold the
// caller passes, dist returns the exact distance or a threshold the exact
// distance provably reaches — and the path table it leaves behind holds only
// exact values.
func TestGraphDistThresholdDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	var exactCalls, boundedCalls, zeroPopStops, blindTrials int
	for trial := 0; trial < 24; trial++ {
		n := 40 + rng.Intn(100)
		var g *graph.Graph
		var lm *landmark.Set
		switch trial % 4 {
		case 0: // static random graph, possibly disconnected
			ds := mkDataset(t, rng, n, 0, trial%8 == 4)
			var err error
			if lm, err = landmark.Select(ds.G, 2+rng.Intn(6), landmark.Strategy(rng.Intn(3)), int64(trial)); err != nil {
				t.Fatal(err)
			}
			g = ds.G
		case 1: // churned, a strong set
			g, lm = churnedWorld(t, rng, n, 8, landmark.Farthest, 40)
		case 2: // churned, a weak set
			g, lm = churnedWorld(t, rng, n, 2, landmark.Random, 40)
		case 3: // churned, one landmark
			g, lm = churnedWorld(t, rng, n, 1, landmark.Random, 60)
		}

		q := graph.VertexID(rng.Intn(n))
		if trial%8 == 3 { // from the side the landmark cannot see
			for !blind(lm, q) {
				q = graph.VertexID(rng.Intn(n))
			}
		}
		if blind(lm, q) {
			blindTrials++
		}
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
				for _, x := range gd.pathSet {
					px := gd.pathDist[x]
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
	if blindTrials == 0 {
		t.Error("no trial ran with a zero heuristic")
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
	e, queryUser := popCountFixture(t, gen.GowallaPreset)
	prm := Params{K: 30, Alpha: 0.3}
	meanPops := func(algo Algorithm, count int) float64 {
		total := 0
		for i := 0; i < count; i++ {
			total += popCountQuery(t, e, algo, queryUser(i), prm).Pops()
		}
		return float64(total) / float64(count)
	}
	ais, tsa, sfa := meanPops(AIS, popCountQueries), meanPops(TSA, popCountQueries), meanPops(SFA, popCountQueries)
	aisMinus := meanPops(AISMinus, popCountQueries)
	// AIS-BID costs tens of thousands of pops a query; a quarter of the
	// queries is plenty to place it.
	aisBID, aisFew, aisMinusFew := meanPops(AISBID, popCountQueries/4), meanPops(AIS, popCountQueries/4), meanPops(AISMinus, popCountQueries/4)
	t.Logf("mean pops/query: AIS %.0f  TSA %.0f  SFA %.0f  AIS⁻ %.0f | first %d queries: AIS-BID %.0f  AIS⁻ %.0f  AIS %.0f",
		ais, tsa, sfa, aisMinus, popCountQueries/4, aisBID, aisMinusFew, aisFew)
	// Before evaluations ran in rounds this was 1 739.85 (logged as 1740);
	// with them it was 1 647, then 1 058 once β stopped re-queuing users
	// (DESIGN.md §4.12), and it is 1 022 since the friends-of-friends bound
	// went (§4.13). Counts repeat exactly.
	if ais >= 1700 {
		t.Errorf("AIS mean pops/query = %.0f, want below 1700: the first evaluation is flooding again", ais)
	}
	if !(ais < tsa && tsa < sfa) {
		t.Errorf("Fig. 8 ordering lost: want AIS < TSA < SFA, got %.0f, %.0f, %.0f", ais, tsa, sfa)
	}
	if !(aisMinus > ais && aisBID > aisMinusFew && aisMinusFew > aisFew) {
		t.Errorf("Fig. 10 ordering lost: want AIS-BID > AIS⁻ > AIS, got %.0f > %.0f > %.0f (AIS⁻ %.0f vs AIS %.0f on all queries)",
			aisBID, aisMinusFew, aisFew, aisMinus, ais)
	}
}

// popCountQueries is how many query users the pop-count gates run.
const popCountQueries = 40

// popCountFixture is the engine and query users of the pop-count gates:
// the preset at 5000 users (seed 42) and the i-th of popCountQueries evenly
// spaced located users.
func popCountFixture(t *testing.T, preset gen.Preset) (*Engine, func(i int) graph.VertexID) {
	t.Helper()
	ds, err := preset.Dataset(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	users := locatedUsers(ds)
	return e, func(i int) graph.VertexID { return users[i*len(users)/popCountQueries] }
}

func popCountQuery(t *testing.T, e *Engine, algo Algorithm, q graph.VertexID, prm Params) Stats {
	t.Helper()
	res, err := e.Query(algo, q, prm)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// TestAISIndexPopsAcrossAlpha extends the pop-count gate to the α where AIS
// meets TSA: on the fixture of TestPaperOrderingAsPopCounts, and on urban
// and homophily worlds of the same size, AIS's index pops per query — users
// and cells, from both of its queues — stay under ceilings set from the
// measured counts, which repeat exactly. On gowalla, before β stopped
// re-queuing users (DESIGN.md §4.12) they read 1 297, 2 151 and 3 450;
// with the friends-of-friends bound they read 650, 887 and 1 558; without
// it (§4.13) they read 634, 890 and 785. Urban read 421, 638 and 927 with
// it and 384, 540 and 668 without; homophily 423, 543 and 1 136 against
// 408, 420 and 401. A bound that floods AIS's heap at high α fails here by
// preset. TSA's and SFA's pops are pinned exactly at the same settings:
// they share nothing with AIS's loop, so nothing here may move them.
func TestAISIndexPopsAcrossAlpha(t *testing.T) {
	type gate struct {
		alpha    float64
		ceiling  float64 // AIS index pops per query
		tsa, sfa int     // total pops over the queries
	}
	for _, p := range []struct {
		preset gen.Preset
		gates  []gate
	}{
		{gen.GowallaPreset, []gate{
			{0.5, 640, 57342, 49479},
			{0.7, 890, 31042, 21554},
			{0.9, 790, 11542, 6162},
		}},
		{gen.UrbanPreset, []gate{
			{0.5, 390, 88106, 93444},
			{0.7, 540, 38404, 32395},
			{0.9, 670, 13337, 7744},
		}},
		{gen.HomophilyPreset, []gate{
			{0.5, 410, 15928, 12632},
			{0.7, 430, 8932, 5461},
			{0.9, 410, 4808, 2513},
		}},
	} {
		e, queryUser := popCountFixture(t, p.preset)
		for _, c := range p.gates {
			prm := Params{K: 30, Alpha: c.alpha}
			var index, tsa, sfa int
			for i := 0; i < popCountQueries; i++ {
				q := queryUser(i)
				st := popCountQuery(t, e, AIS, q, prm)
				index += st.IndexUserPops + st.IndexCellPops
				tsa += popCountQuery(t, e, TSA, q, prm).Pops()
				sfa += popCountQuery(t, e, SFA, q, prm).Pops()
			}
			mean := float64(index) / popCountQueries
			t.Logf("%s α=%.1f: AIS %.1f index pops/query (ceiling %.0f); TSA %d and SFA %d pops over %d queries",
				p.preset.Name, c.alpha, mean, c.ceiling, tsa, sfa, popCountQueries)
			if mean > c.ceiling {
				t.Errorf("%s α=%.1f: AIS makes %.1f index pops per query, ceiling %.0f: a bound or β re-queuing is flooding the heap",
					p.preset.Name, c.alpha, mean, c.ceiling)
			}
			if tsa != c.tsa || sfa != c.sfa {
				t.Errorf("%s α=%.1f: TSA/SFA pops moved to %d/%d, want %d/%d", p.preset.Name, c.alpha, tsa, sfa, c.tsa, c.sfa)
			}
		}
	}
}

// lastRound replays the budget rule from outside for one dist call that began
// with the forward search at fwd pops, was restarted restarts times and
// settled spent reverse vertices in all: every round but the last ran out of
// budget — that is why it was restarted — so it spent its whole grant and the
// forward search then grew by as much. It returns what is left for the last
// round, and that round's grant.
func lastRound(first, fwd, restarts, spent int) (pops, grant int) {
	for ; restarts > 0; restarts-- {
		g := max(first, fwd)
		spent -= g
		fwd += g
	}
	return spent, max(first, fwd)
}

// TestGraphDistRoundsStayBalanced is the regression for the first-evaluation
// flood, as counts: on the fixture of TestPaperOrderingAsPopCounts no round
// of any evaluation settles more reverse vertices than the forward search had
// settled when the round began (or the first-round constant), and the two
// sides stay one pop apart after every call. Candidates arrive in ascending
// spatial distance, which makes the loop below an exact SSRQ algorithm whose
// first evaluation faces a ball holding only q.
func TestGraphDistRoundsStayBalanced(t *testing.T) {
	ds, err := gen.GowallaPreset.Dataset(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sn := e.Snapshot()
	grid := sn.Grid()
	users := locatedUsers(ds)
	const queries, k, alpha = 40, 30, 0.3
	pool := graph.NewAStarPool(ds.NumUsers())
	type cand struct {
		v graph.VertexID
		d float64
	}
	cands := make([]cand, 0, len(users))
	var calls, totalRestarts, reversePops int
	worstFirst := 0
	for i := 0; i < queries; i++ {
		q := users[i*len(users)/queries]
		cands = cands[:0]
		for _, v := range users {
			if v != q {
				cands = append(cands, cand{v, grid.Point(v).Dist(grid.Point(q))})
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
		var st Stats
		gd := newGraphDist(sn.SocialGraph(), sn.Landmarks(), q, pool, &st, alpha, true)
		r := newTopK(k)
		for j, c := range cands {
			if combine(alpha, 0, c.d) >= r.Fk() {
				break
			}
			fwd, rev, restarts := gd.fwd.Pops(), st.ReversePops, st.GraphDistRestarts
			p, exact := gd.dist(c.v, c.d, r.Fk())
			spent := st.ReversePops - rev
			if pops, grant := lastRound(firstRoundPops, fwd, st.GraphDistRestarts-restarts, spent); pops < 0 || pops > grant {
				t.Fatalf("query %d, evaluation %d: %d reverse pops in %d rounds from a forward ball of %d: the last round spent %d of a grant of %d",
					q, j, spent, st.GraphDistRestarts-restarts+1, fwd, pops, grant)
			}
			if gd.fwd.Pops() != st.ReversePops+1 && !math.IsInf(gd.beta(), 1) {
				t.Fatalf("query %d, evaluation %d: %d forward pops against %d reverse pops", q, j, gd.fwd.Pops(), st.ReversePops)
			}
			if j == 0 {
				worstFirst = max(worstFirst, spent)
			}
			if exact {
				r.Consider(Entry{ID: c.v, F: combine(alpha, p, c.d), P: p, D: c.d})
			}
		}
		calls, totalRestarts, reversePops = calls+st.GraphDistCalls, totalRestarts+st.GraphDistRestarts, reversePops+st.ReversePops
	}
	t.Logf("%d queries: %d evaluations, %d restarts, %d reverse pops; the costliest first evaluation spent %d",
		queries, calls, totalRestarts, reversePops, worstFirst)
	if totalRestarts == 0 {
		t.Error("no evaluation was ever restarted: the fixture no longer exercises the rounds")
	}
}

// TestGraphDistRoundEdgeCases forces one-pop first rounds, so that nearly
// every evaluation is restarted several times, on graphs with two components
// and weak landmark sets, and holds every answer against a reference
// Dijkstra.
func TestGraphDistRoundEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var swallowed, exhausted, carried, tableWrites, boundedStops, blindQueries int
	for trial := 0; trial < 30; trial++ {
		n := 40 + rng.Intn(100)
		var g *graph.Graph
		var lm *landmark.Set
		switch trial % 3 {
		case 0: // one landmark: on the far side nothing steers or seeds the reverse search
			g, lm = churnedWorld(t, rng, n, 1, landmark.Random, 40)
		case 1: // a few random landmarks
			g, lm = churnedWorld(t, rng, n, []int{2, 8}[trial/3%2], landmark.Random, 40)
		case 2: // farthest landmarks, two components
			ds := mkDataset(t, rng, n, 0, true)
			var err error
			if lm, err = landmark.Select(ds.G, 2+rng.Intn(4), landmark.Farthest, int64(trial)); err != nil {
				t.Fatal(err)
			}
			g = ds.G
		}
		pool := graph.NewAStarPool(n)
		for _, q := range []graph.VertexID{graph.VertexID(rng.Intn(n / 2)), graph.VertexID(n/2 + rng.Intn(n-n/2))} {
			if blind(lm, q) {
				blindQueries++
			}
			truth := g.DistancesFrom(q)
			alpha := 0.05 + 0.9*rng.Float64()
			bounded := rng.Intn(4) > 0 // one in four runs as AIS⁻
			var st Stats
			gd := newGraphDist(g, lm, q, pool, &st, alpha, bounded)
			gd.firstRound = 1
			for probe := 0; probe < 25; probe++ {
				v := graph.VertexID(rng.Intn(n))
				d := rng.Float64()
				f := combine(alpha, truth[v], d)
				fk := math.Inf(1)
				if math.IsInf(f, 1) {
					if rng.Intn(2) == 0 {
						fk = 1 + rng.Float64()*4
					}
				} else if c := rng.Intn(4); c > 0 {
					fk = f * []float64{0, 0.6, 1, 1.5}[c]
				}
				_, wasKnown := gd.known(v)
				fwd, rev, restarts, table := gd.fwd.Pops(), st.ReversePops, st.GraphDistRestarts, len(gd.pathSet)
				got, exact := gd.dist(v, d, fk)
				restarts = st.GraphDistRestarts - restarts
				last, grant := lastRound(1, fwd, restarts, st.ReversePops-rev)
				if last < 0 || last > grant {
					t.Fatalf("trial %d: %d restarts from a forward ball of %d spent %d reverse pops", trial, restarts, fwd, st.ReversePops-rev)
				}
				switch {
				case exact:
					if math.Abs(got-truth[v]) > distTol && !(math.IsInf(got, 1) && math.IsInf(truth[v], 1)) {
						t.Fatalf("trial %d: dist(%d→%d) = %v after %d restarts, want %v", trial, q, v, got, restarts, truth[v])
					}
				case !bounded:
					t.Fatalf("trial %d: unbounded GraphDist stopped at a threshold (v=%d fk=%v)", trial, v, fk)
				default: // (e)
					if truth[v] < got-distTol {
						t.Fatalf("trial %d: dist(%d→%d) claims ≥ %v after %d restarts, truth %v", trial, q, v, got, restarts, truth[v])
					}
					if restarts > 0 {
						boundedStops++
					}
				}
				for _, x := range gd.pathSet { // (d)
					px := gd.pathDist[x]
					if math.Abs(px-truth[x]) > distTol {
						t.Fatalf("trial %d: path table holds p(%d)=%v, truth %v (after v=%d, %d restarts)", trial, x, px, truth[x], v, restarts)
					}
				}
				if restarts == 0 || wasKnown {
					continue
				}
				// A call whose last round is empty ended between two rounds.
				switch between := last == 0; {
				case between && exact && gd.fwd.Settled(v): // (a)
					swallowed++
				case between && exact && math.IsInf(got, 1) && math.IsInf(gd.beta(), 1): // (b)
					exhausted++
				case exact && !math.IsInf(got, 1): // (c)
					carried++
					if len(gd.pathSet) > table {
						tableWrites++
					}
				}
			}
		}
	}
	t.Logf("restarted evaluations: %d swallowed by the ball, %d ended by an exhausted component, %d answered by a later round (%d wrote to T), %d bounded stops; %d queries with a zero heuristic",
		swallowed, exhausted, carried, tableWrites, boundedStops, blindQueries)
	if swallowed == 0 || exhausted == 0 || carried == 0 || tableWrites == 0 || boundedStops == 0 || blindQueries == 0 {
		t.Error("a round edge case was never exercised")
	}
}
