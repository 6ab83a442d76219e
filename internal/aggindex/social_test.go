package aggindex

import (
	"math"
	"math/rand"
	"testing"

	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// mkSocialFixture builds an index with its own social substrate, configured
// by cfg, over a random geo-social world.
func mkSocialFixture(t *testing.T, rng *rand.Rand, n, m, s, levels int, cfg Config) *fixture {
	t.Helper()
	f := mkFixture(t, rng, n, m, s, levels, 0.15, false)
	grid, err := spatial.NewGrid(f.grid.Layout(), f.pts, f.located)
	if err != nil {
		t.Fatal(err)
	}
	f.grid = grid
	f.ix, f.sub = index(t, f.g, f.lm, grid, cfg)
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
// members against the *published* landmark tables, and that every landmark
// table is exact on the published graph.
func verifySocialInvariants(t *testing.T, f *fixture) {
	t.Helper()
	sn := f.ix.Snapshot()
	lm := sn.Landmarks()
	g := sn.SocialGraph()
	layout := f.grid.Layout()
	leaf := layout.LeafLevel()

	for j, lmv := range lm.Vertices() {
		want := g.DistancesFrom(lmv)
		for v := 0; v < g.NumVertices(); v++ {
			if got := lm.VertexRow(graph.VertexID(v))[j]; got != want[v] {
				t.Fatalf("landmark %d dist to %d = %v, want %v", j, v, got, want[v])
			}
		}
	}

	// Leaf summaries bracket members under the published tables.
	for idx := int32(0); idx < int32(layout.NumCells(leaf)); idx++ {
		for j := 0; j < lm.M(); j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, u := range sn.Grid().CellUsers(idx) {
				d := lm.VertexRow(u)[j]
				if d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
			}
			lo, hi = outward(lo, hi)
			if got := sn.MinSummary(leaf, idx, j); !sameBits(got, lo) {
				t.Fatalf("leaf %d lm %d: min %v, want %v", idx, j, got, lo)
			}
			if got := sn.MaxSummary(leaf, idx, j); !sameBits(got, hi) {
				t.Fatalf("leaf %d lm %d: max %v, want %v", idx, j, got, hi)
			}
		}
	}
}

// TestSocialApplyMaintainsSummaries is the joint-consistency proof: after
// batches mixing edge ops and moves, every published epoch pairs graph,
// landmark tables and summaries that agree with each other exactly — both
// when every table is repaired in place and when a batch large enough to
// make a landmark's repairs rewrite more than n entries recomputes it.
func TestSocialApplyMaintainsSummaries(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := mkFixture(t, rng, 150, 4, 4, 2, 0.15, false)
	n := 150
	for round := 0; round < 12; round++ {
		count := 5 + rng.Intn(10)
		if round%4 == 3 {
			count = 2 * n
		}
		ops := randomEdgeOps(rng, n, count)
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
		f.apply(ops...)
		verifySocialInvariants(t, f)
	}
	if f.sub.Stats().LandmarkRebuilds == 0 {
		t.Fatal("no batch recomputed a landmark table")
	}
}

// TestSocialSnapshotIsolation pins epoch immutability across the social
// dimension: an old snapshot's graph, landmark tables and summaries must
// stay bit-stable while later batches repair and recompute the tables.
func TestSocialSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 120
	f := mkFixture(t, rng, n, 3, 4, 2, 0.15, false)

	f.apply(randomEdgeOps(rng, n, 10)...)
	old := f.ix.Snapshot()
	oldEdges := old.SocialGraph().NumEdges()
	oldDist := make([][]float64, old.Landmarks().NumVertices())
	for v := range oldDist {
		oldDist[v] = old.Landmarks().VertexVector(graph.VertexID(v))
	}
	var oldSums []float64
	layout := f.grid.Layout()
	leaf := layout.LeafLevel()
	for idx := int32(0); idx < int32(layout.NumCells(leaf)); idx++ {
		for j := 0; j < old.Landmarks().M(); j++ {
			oldSums = append(oldSums, old.MinSummary(leaf, idx, j), old.MaxSummary(leaf, idx, j))
		}
	}

	for round := 0; round < 10; round++ {
		f.apply(randomEdgeOps(rng, n, 20+round*round*4)...)
	}
	if f.sub.Stats().LandmarkRebuilds == 0 {
		t.Fatal("no batch recomputed a landmark table")
	}

	if old.SocialGraph().NumEdges() != oldEdges {
		t.Fatal("old snapshot's edge count changed")
	}
	for v := range oldDist {
		for j, want := range oldDist[v] {
			if got := old.Landmarks().VertexRow(graph.VertexID(v))[j]; got != want {
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

// TestSocialLowerBoundAdmissibleUnderChurn samples the Lemma-2 cell bound
// against true distances on the published epoch, alternating batches the
// repairs finish in place with batches that recompute landmark tables.
func TestSocialLowerBoundAdmissibleUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 150
	f := mkFixture(t, rng, n, 4, 4, 2, 0.15, false)
	layout := f.grid.Layout()
	leaf := layout.LeafLevel()
	for round := 0; round < 8; round++ {
		count := 12
		if round%2 == 1 {
			count = 2 * n
		}
		f.apply(randomEdgeOps(rng, n, count)...)
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
					t.Fatalf("round %d: cell %d bound %v > true %v for member %d",
						round, idx, bound, dist[u], u)
				}
			}
		}
	}
	if f.sub.Stats().LandmarkRebuilds == 0 {
		t.Fatal("no batch recomputed a landmark table")
	}
}

// TestEdgeOpCountersAndCompaction checks SocialStats bookkeeping and that
// compaction triggers at the configured threshold without changing the
// published view.
func TestEdgeOpCountersAndCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n = 100
	f := mkSocialFixture(t, rng, n, 3, 4, 2, Config{CompactThreshold: 8})
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
	f.apply([]Op{
		{Kind: OpEdgeUpsert, U: pairs[0][0], V: pairs[0][1], W: 1},    // add
		{Kind: OpEdgeUpsert, U: pairs[0][0], V: pairs[0][1], W: 2},    // reweight
		{Kind: OpEdgeRemove, U: pairs[0][0], V: pairs[0][1]},          // remove
		{Kind: OpEdgeRemove, U: pairs[0][0], V: pairs[0][1]},          // no-op
		{Kind: OpEdgeUpsert, U: pairs[1][0], V: pairs[1][1], W: 0.5},  // add
		{Kind: OpEdgeUpsert, U: pairs[2][0], V: pairs[2][1], W: 0.25}, // add
	}...)
	st := f.sub.Stats()
	if st.EdgeAdds != 3 || st.EdgeReweights != 1 || st.EdgeRemoves != 1 || st.EdgeNoops != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.SocialEpoch != 1 {
		t.Fatalf("social epoch = %d, want 1", st.SocialEpoch)
	}
	// Push past the compaction threshold.
	for i := 0; i < 6; i++ {
		f.apply(randomEdgeOps(rng, n, 6)...)
	}
	st = f.sub.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction at threshold 8 (patched=%d)", st.PatchedVertices)
	}
	verifySocialInvariants(t, f)
}
