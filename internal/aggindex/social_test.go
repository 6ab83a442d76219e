package aggindex

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// mkSocialFixture builds an index with its own social substrate over a
// random geo-social world; tests stop background work via f.ix.sub.Close().
func mkSocialFixture(t *testing.T, rng *rand.Rand, n, m, s, levels int, cfg Config) *fixture {
	t.Helper()
	f := mkFixture(t, rng, n, m, s, levels, 0.15, false)
	layout, err := spatial.NewLayout(spatial.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, s, levels)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := spatial.NewGrid(layout, f.pts, f.located)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSocialSubstrate(f.lm, f.g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewShared(grid, sub)
	if err != nil {
		t.Fatal(err)
	}
	f.grid = grid
	f.ix = ix
	return f
}

// randomEdgeOps builds a batch of random edge ops over n users.
func randomEdgeOps(rng *rand.Rand, n, count int) []Op {
	ops := make([]Op, 0, count)
	for len(ops) < count {
		u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
		if u == v {
			continue
		}
		if rng.Intn(3) == 0 {
			ops = append(ops, Op{Kind: OpEdgeRemove, U: u, V: v})
		} else {
			ops = append(ops, Op{Kind: OpEdgeUpsert, U: u, V: v, W: 0.1 + rng.Float64()*2})
		}
	}
	return ops
}

// verifySocialInvariants checks every cell summary exactly brackets its
// members against the *published* landmark tables, and that enabled
// landmark tables are exact on the published graph.
func verifySocialInvariants(t *testing.T, f *fixture) {
	t.Helper()
	sn := f.ix.Snapshot()
	lm := sn.Landmarks()
	g := sn.SocialGraph()
	layout := f.grid.Layout()
	leaf := layout.LeafLevel()

	// Enabled landmark tables must be exact shortest-path distances.
	for j, lmv := range lm.Vertices() {
		if !lm.Enabled(j) {
			continue
		}
		want := g.DistancesFrom(lmv)
		for v := 0; v < g.NumVertices(); v++ {
			if got := lm.Dist(j, graph.VertexID(v)); got != want[v] {
				t.Fatalf("landmark %d dist to %d = %v, want %v", j, v, got, want[v])
			}
		}
	}

	// Leaf summaries bracket members under the published tables.
	for idx := int32(0); idx < int32(layout.NumCells(leaf)); idx++ {
		for j := 0; j < lm.M(); j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, u := range sn.Grid().CellUsers(idx) {
				d := lm.Dist(j, u)
				if d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
			}
			if got := sn.MinSummary(leaf, idx, j); got != lo {
				t.Fatalf("leaf %d lm %d: min %v, want %v", idx, j, got, lo)
			}
			if got := sn.MaxSummary(leaf, idx, j); got != hi {
				t.Fatalf("leaf %d lm %d: max %v, want %v", idx, j, got, hi)
			}
		}
	}
}

// TestSocialApplyMaintainsSummaries is the joint-consistency proof: after
// batches mixing edge ops and moves, every published epoch pairs graph,
// landmark tables and summaries that agree with each other exactly.
func TestSocialApplyMaintainsSummaries(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := mkSocialFixture(t, rng, 150, 4, 4, 2, Config{RepairBudget: 1 << 30})
	n := 150
	for round := 0; round < 12; round++ {
		ops := randomEdgeOps(rng, n, 5+rng.Intn(10))
		// Mix in location ops: moves and removals share the batch.
		for i := 0; i < 4; i++ {
			id := rng.Int31n(int32(n))
			if rng.Intn(4) == 0 {
				ops = append(ops, Op{ID: id, Remove: true})
			} else {
				ops = append(ops, Op{ID: id, To: spatial.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}})
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		f.ix.Apply(ops)
		verifySocialInvariants(t, f)
	}
}

// TestSocialSnapshotIsolation pins epoch immutability across the social
// dimension: an old snapshot's graph, landmark tables and summaries must
// stay bit-stable while later batches mutate and rebuild.
func TestSocialSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 120
	f := mkSocialFixture(t, rng, n, 3, 4, 2, Config{RepairBudget: 6})

	f.ix.Apply(randomEdgeOps(rng, n, 10))
	old := f.ix.Snapshot()
	oldEdges := old.SocialGraph().NumEdges()
	oldDist := make([][]float64, old.Landmarks().M())
	for j := range oldDist {
		oldDist[j] = old.Landmarks().Table(j)
	}
	var oldSums []float64
	layout := f.grid.Layout()
	leaf := layout.LeafLevel()
	for idx := int32(0); idx < int32(layout.NumCells(leaf)); idx++ {
		for j := 0; j < old.Landmarks().M(); j++ {
			oldSums = append(oldSums, old.MinSummary(leaf, idx, j), old.MaxSummary(leaf, idx, j))
		}
	}
	oldMask := old.Landmarks().DisabledMask()

	for round := 0; round < 10; round++ {
		f.ix.Apply(randomEdgeOps(rng, n, 20))
	}
	f.ix.RebuildDisabledLandmarks()

	if old.SocialGraph().NumEdges() != oldEdges {
		t.Fatal("old snapshot's edge count changed")
	}
	if old.Landmarks().DisabledMask() != oldMask {
		t.Fatal("old snapshot's disabled mask changed")
	}
	for j := range oldDist {
		for v, want := range oldDist[j] {
			if got := old.Landmarks().Dist(j, graph.VertexID(v)); got != want {
				t.Fatalf("old snapshot landmark %d dist to %d changed: %v -> %v", j, v, want, got)
			}
		}
	}
	i := 0
	for idx := int32(0); idx < int32(layout.NumCells(leaf)); idx++ {
		for j := 0; j < old.Landmarks().M(); j++ {
			if old.MinSummary(leaf, idx, j) != oldSums[i] || old.MaxSummary(leaf, idx, j) != oldSums[i+1] {
				t.Fatalf("old snapshot summary for leaf %d lm %d changed", idx, j)
			}
			i += 2
		}
	}
}

// TestRebuildRestoresDisabledLandmarks drives churn with a tiny budget until
// landmarks disable, then checks the synchronous rebuild restores exactness
// and the re-derived summaries.
func TestRebuildRestoresDisabledLandmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 150
	f := mkSocialFixture(t, rng, n, 4, 4, 2, Config{RepairBudget: 2})
	for round := 0; round < 20 && f.ix.SocialStats().DisabledLandmarks == 0; round++ {
		f.ix.Apply(randomEdgeOps(rng, n, 15))
	}
	if f.ix.SocialStats().DisabledLandmarks == 0 {
		t.Skip("tiny budget never disabled a landmark on this seed")
	}
	rebuilt := f.ix.RebuildDisabledLandmarks()
	if rebuilt == 0 {
		t.Fatal("RebuildDisabledLandmarks rebuilt nothing")
	}
	if got := f.ix.SocialStats().DisabledLandmarks; got != 0 {
		t.Fatalf("%d landmarks still disabled after rebuild", got)
	}
	verifySocialInvariants(t, f)
}

// TestSocialLowerBoundAdmissibleUnderChurn samples the Lemma-2 cell bound
// against true distances on the published epoch, with landmarks disabling
// mid-run.
func TestSocialLowerBoundAdmissibleUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 150
	f := mkSocialFixture(t, rng, n, 4, 4, 2, Config{RepairBudget: 10})
	layout := f.grid.Layout()
	leaf := layout.LeafLevel()
	for round := 0; round < 8; round++ {
		f.ix.Apply(randomEdgeOps(rng, n, 12))
		sn := f.ix.Snapshot()
		lm := sn.Landmarks()
		g := sn.SocialGraph()
		q := graph.VertexID(rng.Intn(n))
		dist := g.DistancesFrom(q)
		qvec := lm.VertexVector(q)
		for idx := int32(0); idx < int32(layout.NumCells(leaf)); idx++ {
			bound := sn.SocialLowerBound(leaf, idx, qvec)
			for _, u := range sn.Grid().CellUsers(idx) {
				if bound > dist[u]+1e-9 {
					t.Fatalf("round %d: cell %d bound %v > true %v for member %d (disabled=%d)",
						round, idx, bound, dist[u], u, lm.NumDisabled())
				}
			}
		}
	}
}

// TestEdgeOpCountersAndCompaction checks SocialStats bookkeeping and that
// compaction triggers at the configured threshold without changing the
// published view.
func TestEdgeOpCountersAndCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n = 100
	f := mkSocialFixture(t, rng, n, 3, 4, 2, Config{RepairBudget: 1 << 30, CompactThreshold: 8})
	// Pick three pairs guaranteed absent from the generated graph.
	g0 := f.ix.Snapshot().SocialGraph()
	var pairs [][2]int32
	for u := int32(0); len(pairs) < 3 && u < n; u++ {
		for v := u + 1; len(pairs) < 3 && v < n; v++ {
			if _, ok := g0.EdgeWeight(u, v); !ok {
				pairs = append(pairs, [2]int32{u, v})
			}
		}
	}
	f.ix.Apply([]Op{
		{Kind: OpEdgeUpsert, U: pairs[0][0], V: pairs[0][1], W: 1},    // add
		{Kind: OpEdgeUpsert, U: pairs[0][0], V: pairs[0][1], W: 2},    // reweight
		{Kind: OpEdgeRemove, U: pairs[0][0], V: pairs[0][1]},          // remove
		{Kind: OpEdgeRemove, U: pairs[0][0], V: pairs[0][1]},          // no-op
		{Kind: OpEdgeUpsert, U: pairs[1][0], V: pairs[1][1], W: 0.5},  // add
		{Kind: OpEdgeUpsert, U: pairs[2][0], V: pairs[2][1], W: 0.25}, // add
	})
	st := f.ix.SocialStats()
	if st.EdgeAdds != 3 || st.EdgeReweights != 1 || st.EdgeRemoves != 1 || st.EdgeNoops != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.SocialEpoch != 1 {
		t.Fatalf("social epoch = %d, want 1", st.SocialEpoch)
	}
	// Push past the compaction threshold.
	for i := 0; i < 6; i++ {
		f.ix.Apply(randomEdgeOps(rng, n, 6))
	}
	st = f.ix.SocialStats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction at threshold 8 (patched=%d)", st.PatchedVertices)
	}
	verifySocialInvariants(t, f)
}

// TestStaticIndexRejectsEdgeOps: a New-built index must skip edge ops
// harmlessly and report no churn support.
func TestStaticIndexRejectsEdgeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := mkFixture(t, rng, 80, 3, 4, 2, 0.1, false)
	if f.ix.SupportsEdgeChurn() {
		t.Fatal("static index claims edge churn support")
	}
	f.ix.Apply([]Op{{Kind: OpEdgeUpsert, U: 0, V: 1, W: 1}})
	if f.ix.SocialStats().SocialEpoch != 0 {
		t.Fatal("static index advanced social epoch")
	}
}

// TestForcedInstallBoundsLandmarkStarvation deterministically reproduces the
// install-starvation regime: the testBeforeInstall seam applies one edge op
// between every rebuild recompute and its install attempt, so the optimistic
// path loses the epoch race every single time. After the 8th consecutive
// loss the loop must fall back to the forced install under the writer lock
// (rate limit effectively off), restore every landmark, and count the event
// — the disabled window is bounded instead of starving forever.
func TestForcedInstallBoundsLandmarkStarvation(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	f := mkSocialFixture(t, rng, 80, 3, 4, 2, Config{
		RepairBudget:          1, // effective ops disable landmarks immediately
		ForcedInstallInterval: time.Nanosecond,
	})
	defer f.ix.sub.Close()
	churn := rand.New(rand.NewSource(99))
	f.ix.sub.testBeforeInstall = func() {
		u := churn.Int31n(80)
		v := churn.Int31n(80)
		if u == v {
			v = (v + 1) % 80
		}
		f.ix.Apply([]Op{{Kind: OpEdgeUpsert, U: u, V: v, W: 0.1 + churn.Float64()}})
	}
	// Disable at least one landmark to kick the rebuild loop.
	f.ix.Apply(randomEdgeOps(rng, 80, 6))
	deadline := time.Now().Add(20 * time.Second)
	for f.ix.SocialStats().LandmarkForcedInstalls == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := f.ix.SocialStats()
	if st.LandmarkForcedInstalls == 0 {
		t.Fatal("permanently lost install race never escalated to a forced install")
	}
	// The forced install restored every landmark in one event; with the seam
	// no optimistic install can ever have succeeded.
	if st.LandmarkRebuilds != st.LandmarkForcedInstalls {
		t.Fatalf("optimistic installs slipped through the seam: rebuilds=%d forced=%d",
			st.LandmarkRebuilds, st.LandmarkForcedInstalls)
	}
	verifySocialInvariants(t, f)
}

// TestForcedInstallRateLimited: the first exhaustion may force immediately
// (a starving system should not wait out the interval before its first
// relief), but with a long interval every later exhaustion must give up (old
// behavior) instead of forcing again — the fallback is one event per
// interval.
func TestForcedInstallRateLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := mkSocialFixture(t, rng, 60, 3, 4, 2, Config{
		RepairBudget:          1,
		ForcedInstallInterval: time.Hour,
	})
	defer f.ix.sub.Close()
	churn := rand.New(rand.NewSource(77))
	var seamCalls atomic.Int64
	f.ix.sub.testBeforeInstall = func() {
		seamCalls.Add(1)
		u := churn.Int31n(60)
		v := churn.Int31n(60)
		if u == v {
			v = (v + 1) % 60
		}
		f.ix.Apply([]Op{{Kind: OpEdgeUpsert, U: u, V: v, W: 0.1 + churn.Float64()}})
	}
	f.ix.Apply(randomEdgeOps(rng, 60, 6))
	deadline := time.Now().Add(20 * time.Second)
	for f.ix.SocialStats().LandmarkForcedInstalls == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	first := f.ix.SocialStats().LandmarkForcedInstalls
	if first == 0 {
		t.Fatal("first exhaustion never forced an install")
	}
	// Two more exhaustion rounds (the seam loses every race, so 8 calls = one
	// round): the hour-long interval must block any further forced event.
	// External churn keeps disabling landmarks and re-kicking the loop, which
	// would otherwise (correctly) exit after the forced install restored all.
	target := seamCalls.Load() + 16
	for seamCalls.Load() < target && time.Now().Before(deadline) {
		f.ix.Apply(randomEdgeOps(rng, 60, 2))
		time.Sleep(time.Millisecond)
	}
	if seamCalls.Load() < target {
		t.Fatal("rebuild loop stopped attempting")
	}
	f.ix.sub.Close() // drain the loop before reading counters race-free
	if got := f.ix.SocialStats().LandmarkForcedInstalls; got != first {
		t.Fatalf("forced installs grew %d -> %d within the interval", first, got)
	}
	// The window is closed by the synchronous rebuild instead.
	if f.ix.RebuildDisabledLandmarks() == 0 {
		t.Fatal("no landmarks left to rebuild — seam never disabled any")
	}
	if got := f.ix.SocialStats().DisabledLandmarks; got != 0 {
		t.Fatalf("%d landmarks disabled after sync rebuild", got)
	}
}
