package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ssrq/internal/dataset"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// edgeKey is an unordered user pair.
type edgeKey [2]int32

func mkEdgeKey(u, v int32) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// seedModel captures a dataset's (normalized) edges as the oracle model.
func seedModel(ds *dataset.Dataset) map[edgeKey]float64 {
	model := make(map[edgeKey]float64)
	for v := 0; v < ds.NumUsers(); v++ {
		nbrs, ws := ds.G.Neighbors(graph.VertexID(v))
		for i, u := range nbrs {
			model[mkEdgeKey(int32(v), u)] = ws[i]
		}
	}
	return model
}

// modelGraph rebuilds an independent CSR graph from the oracle model.
func modelGraph(n int, model map[edgeKey]float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for k, w := range model {
		_ = b.AddEdge(k[0], k[1], w)
	}
	return b.MustBuild()
}

// oracleTopK computes the expected result fully independently of the
// engine: exact Dijkstra on the freshly rebuilt model graph, locations from
// the engine's published grid epoch, same ranking semantics.
func oracleTopK(e *Engine, model map[edgeKey]float64, q graph.VertexID, prm Params) *Result {
	g := e.Snapshot().Grid()
	dist := modelGraph(e.ds.NumUsers(), model).DistancesFrom(q)
	r := newTopK(prm.K)
	for v := 0; v < e.ds.NumUsers(); v++ {
		id := graph.VertexID(v)
		if id == q {
			continue
		}
		p, d := dist[v], math.Inf(1) // unknown whereabouts are infinitely far
		if g.Located(q) && g.Located(id) {
			d = g.Point(q).Dist(g.Point(id))
		}
		r.Consider(Entry{ID: id, F: combine(prm.Alpha, p, d), P: p, D: d})
	}
	return &Result{Query: q, Params: prm, Entries: r.Sorted()}
}

// TestRandomizedSocialChurnEquivalence extends the cross-algorithm
// equivalence property to a mutating world: random interleavings of edge
// churn (add/remove/reweight through both sync and async paths), location
// churn and queries. After every Flush, every algorithm must match a
// brute-force oracle built from scratch on the mutated graph — and the
// engine's own BruteForce must match that external oracle too (the overlay
// never drifts from the true topology). Landmark bounds are additionally
// sampled for admissibility on every probe.
func TestRandomizedSocialChurnEquivalence(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + trial)))
			n := 30 + rng.Intn(90)
			ds := mkDataset(t, rng, n, 0.2*rng.Float64(), trial%3 == 2)
			opts := Options{
				GridS:        3 + rng.Intn(4),
				GridLevels:   1 + rng.Intn(2),
				NumLandmarks: 2 + rng.Intn(6),
			}
			cacheT := 4 + rng.Intn(40)
			opts.Seed = int64(trial)
			rng.Intn(64) // the deleted queue-batch option's draw, kept so every later draw stays put
			e := newAsync(withCache(mkEngine(t, ds, opts), cacheT))
			defer e.Close()
			model := seedModel(ds)
			users := locatedUsers(ds)

			for round := 0; round < 6; round++ {
				// A burst of interleaved social + spatial churn.
				for op := 0; op < 3+rng.Intn(20); op++ {
					switch rng.Intn(5) {
					case 0, 1: // edge upsert
						u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
						if u == v {
							continue
						}
						w := 0.05 + rng.Float64()
						var err error
						if rng.Intn(2) == 0 {
							err = addFriendAsync(e, u, v, w)
						} else {
							err = e.AddFriend(u, v, w)
						}
						if err != nil {
							t.Fatal(err)
						}
						model[mkEdgeKey(u, v)] = w
					case 2: // edge removal
						u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
						if u == v {
							continue
						}
						var err error
						if rng.Intn(2) == 0 {
							err = removeFriendAsync(e, u, v)
						} else {
							err = removeFriend(e.Engine, u, v)
						}
						if err != nil {
							t.Fatal(err)
						}
						delete(model, mkEdgeKey(u, v))
					case 3: // move
						id := int32(users[rng.Intn(len(users))])
						if err := moveUserAsync(e, id, spatial.Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
							t.Fatal(err)
						}
					case 4: // mid-churn query: any snapshot is a valid world
						q := users[rng.Intn(len(users))]
						if e.Snapshot().Grid().Located(q) {
							res, err := e.Query(AIS, q, Params{K: 5, Alpha: 0.4})
							if err != nil {
								t.Fatal(err)
							}
							if err := validTopK(res, q, 5, 0.4); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				e.Flush() // read-your-writes barrier: model and engine now agree

				for probe := 0; probe < 3; probe++ {
					q := users[rng.Intn(len(users))]
					if !e.Snapshot().Grid().Located(q) {
						continue
					}
					prm := Params{K: 1 + rng.Intn(12), Alpha: 0.05 + 0.9*rng.Float64()}
					want := oracleTopK(e.Engine, model, q, prm)
					for _, algo := range allAlgorithms {
						got, err := e.Query(algo, q, prm)
						if err != nil {
							t.Fatalf("round %d %v (q=%d): %v", round, algo, q, err)
						}
						sameRanking(t, fmt.Sprintf("round %d %v (q=%d k=%d α=%.3f)", round, algo, q, prm.K, prm.Alpha), got, want)
					}
					// Sampled landmark admissibility on the published epoch.
					sn := e.Snapshot()
					lm := sn.Landmarks()
					dist := modelGraph(n, model).DistancesFrom(q)
					for v := 0; v < n; v += 1 + n/24 {
						lo := lm.LowerBound(q, graph.VertexID(v))
						hi := lm.UpperBound(q, graph.VertexID(v))
						if lo > dist[v]+1e-9 {
							t.Fatalf("round %d: LowerBound(%d,%d)=%v > true %v", round, q, v, lo, dist[v])
						}
						if hi < dist[v]-1e-9 {
							t.Fatalf("round %d: UpperBound(%d,%d)=%v < true %v", round, q, v, hi, dist[v])
						}
					}
				}
			}
			q := users[rng.Intn(len(users))]
			if e.Snapshot().Grid().Located(q) {
				prm := Params{K: 10, Alpha: 0.3}
				want := oracleTopK(e.Engine, model, q, prm)
				got, err := e.Query(AIS, q, prm)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, "final AIS", got, want)
			}
		})
	}
}

// TestConcurrentSocialAndLocationChurnStress is the -race proof for the
// social dimension: edge churners, movers and queriers hammer the engine
// simultaneously. Every mid-flight query must be a valid top-k over *some*
// published epoch (never a half-applied edge), and every sampled landmark
// bound must be admissible against the exact distances of the same snapshot
// it came from. Two of the edgers call ApplyUpdates directly, racing each
// other and the queue's apply for the engine's writer lock — the only lock
// the index and the substrate have. After the dust settles the index must sit
// at the substrate's social epoch with exact landmark tables and leaf
// summaries, and agree exactly with brute force on the mutated graph.
func TestConcurrentSocialAndLocationChurnStress(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const n = 160
	ds := mkDataset(t, rng, n, 0, false)
	e := newAsync(withCache(mkEngine(t, ds, Options{GridS: 5, GridLevels: 2}), 20))
	defer e.Close()

	var movable, queryable []graph.VertexID
	for _, u := range locatedUsers(ds) {
		if int(u) >= n/2 {
			movable = append(movable, u)
		} else {
			queryable = append(queryable, u)
		}
	}

	const (
		numQueriers   = 3
		numEdgers     = 2
		numSyncEdgers = 2
		numMovers     = 1
		queriesEach   = 25
		edgeOpsEach   = 120
		syncBatches   = 30
		movesEach     = 80
		numAuditors   = 1
		auditsEach    = 10
	)
	algos := []Algorithm{AIS, TSA, SFA, SPA, AISMinus, AISCache}
	var wg sync.WaitGroup
	var queriesDone, edgeOpsDone atomic.Int64
	errCh := make(chan error, numQueriers+numEdgers+numSyncEdgers+numMovers+numAuditors)

	for g := 0; g < numEdgers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			erng := rand.New(rand.NewSource(int64(300 + g)))
			for i := 0; i < edgeOpsEach; i++ {
				u, v := erng.Int31n(n), erng.Int31n(n)
				if u == v {
					continue
				}
				var err error
				if erng.Intn(3) == 0 {
					err = removeFriendAsync(e, u, v)
				} else {
					err = addFriendAsync(e, u, v, 0.05+erng.Float64())
				}
				if err != nil {
					errCh <- err
					return
				}
				edgeOpsDone.Add(1)
			}
		}(g)
	}
	for g := 0; g < numSyncEdgers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			srng := rand.New(rand.NewSource(int64(350 + g)))
			for i := 0; i < syncBatches; i++ {
				var batch []Update
				for len(batch) < 1+srng.Intn(4) {
					u, v := srng.Int31n(n), srng.Int31n(n)
					switch {
					case u == v:
					case srng.Intn(3) == 0:
						batch = append(batch, Update{Kind: OpEdgeRemove, U: u, V: v})
					default:
						batch = append(batch, Update{Kind: OpEdgeUpsert, U: u, V: v, W: 0.05 + srng.Float64()})
					}
				}
				if err := e.ApplyUpdates(batch); err != nil {
					errCh <- err
					return
				}
				edgeOpsDone.Add(int64(len(batch)))
			}
		}(g)
	}
	for g := 0; g < numMovers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mrng := rand.New(rand.NewSource(int64(400 + g)))
			for i := 0; i < movesEach; i++ {
				u := movable[mrng.Intn(len(movable))]
				var err error
				if mrng.Intn(5) == 0 {
					err = removeUserLocationAsync(e, int32(u))
				} else {
					err = moveUserAsync(e, int32(u), spatial.Point{X: mrng.Float64(), Y: mrng.Float64()})
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < numQueriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(500 + g)))
			for i := 0; i < queriesEach; i++ {
				q := queryable[qrng.Intn(len(queryable))]
				algo := algos[(g+i)%len(algos)]
				k := 1 + qrng.Intn(10)
				alpha := 0.1 + 0.8*qrng.Float64()
				res, err := e.Query(algo, q, Params{K: k, Alpha: alpha})
				if err == nil {
					err = validTopK(res, q, k, alpha)
				}
				if err != nil {
					errCh <- fmt.Errorf("%v on user %d: %w", algo, q, err)
					return
				}
				queriesDone.Add(1)
			}
		}(g)
	}
	// Auditor: loads a snapshot mid-churn and verifies landmark bounds are
	// admissible against exact distances *of that same snapshot* — the
	// "never tighter than the true shortest path" contract.
	for g := 0; g < numAuditors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arng := rand.New(rand.NewSource(int64(600 + g)))
			for i := 0; i < auditsEach; i++ {
				sn := e.Snapshot()
				lm := sn.Landmarks()
				q := graph.VertexID(arng.Intn(n))
				dist := sn.SocialGraph().DistancesFrom(q)
				for v := 0; v < n; v += 7 {
					lo := lm.LowerBound(q, graph.VertexID(v))
					hi := lm.UpperBound(q, graph.VertexID(v))
					if lo > dist[v]+1e-9 {
						errCh <- fmt.Errorf("mid-churn LowerBound(%d,%d)=%v > true %v", q, v, lo, dist[v])
						return
					}
					if hi < dist[v]-1e-9 {
						errCh <- fmt.Errorf("mid-churn UpperBound(%d,%d)=%v < true %v", q, v, hi, dist[v])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if queriesDone.Load() == 0 || edgeOpsDone.Load() == 0 {
		t.Fatalf("no overlap: %d queries, %d edge ops", queriesDone.Load(), edgeOpsDone.Load())
	}

	// Quiesce and verify exact agreement on the mutated world.
	e.Flush()
	sn := e.Snapshot()
	if got, want := sn.SocialEpoch(), e.sub.Stats().SocialEpoch; got != want {
		t.Fatalf("index published social epoch %d, substrate is at %d", got, want)
	}
	lm, g := sn.Landmarks(), sn.SocialGraph()
	for j, lmv := range lm.Vertices() {
		for v, want := range g.DistancesFrom(lmv) {
			if got := lm.VertexRow(graph.VertexID(v))[j]; got != want {
				t.Fatalf("landmark %d dist to %d = %v, a fresh Dijkstra gives %v", j, v, got, want)
			}
		}
	}
	grid := sn.Grid()
	leaf := grid.Layout().LeafLevel()
	for idx := int32(0); idx < int32(grid.Layout().NumCells(leaf)); idx++ {
		for j := 0; j < lm.M(); j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, u := range grid.CellUsers(idx) {
				lo, hi = math.Min(lo, lm.VertexRow(u)[j]), math.Max(hi, lm.VertexRow(u)[j])
			}
			lo, hi = outward(lo, hi)
			if math.Float64bits(sn.MinSummary(leaf, idx, j)) != math.Float64bits(lo) || math.Float64bits(sn.MaxSummary(leaf, idx, j)) != math.Float64bits(hi) {
				t.Fatalf("leaf %d landmark %d: summary (%v, %v), members give (%v, %v)",
					idx, j, sn.MinSummary(leaf, idx, j), sn.MaxSummary(leaf, idx, j), lo, hi)
			}
		}
	}
	prm := Params{K: 10, Alpha: 0.3}
	for probe := 0; probe < 4; probe++ {
		q := queryable[rng.Intn(len(queryable))]
		want, err := e.Query(BruteForce, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range allAlgorithms {
			got, err := e.Query(algo, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, "post-stress "+algo.String(), got, want)
		}
	}
}

// TestEdgeUpdateValidation pins the edge-op validation surface.
func TestEdgeUpdateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := mkDataset(t, rng, 30, 0, false)
	e := newAsync(mkEngine(t, ds, Options{}))
	defer e.Close()
	if err := e.AddFriend(-1, 2, 1); err == nil {
		t.Fatal("negative user accepted")
	}
	if err := e.AddFriend(0, 30, 1); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if err := e.AddFriend(3, 3, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	for _, w := range []float64{0, -1} {
		if err := e.AddFriend(0, 1, w); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	if err := addFriendAsync(e, 2, 2, 1); err == nil {
		t.Fatal("async self-loop accepted")
	}
	if err := removeFriendAsync(e, 0, 99); err == nil {
		t.Fatal("async out-of-range accepted")
	}
	if err := removeFriend(e.Engine, 0, 1); err != nil {
		t.Fatalf("valid removal rejected: %v", err)
	}
}

// TestEdgeChurnBeyondSixtyFourLandmarks: an engine with more landmarks than
// a 64-bit mask holds takes edge churn like any other and stays equal to an
// oracle built from scratch on the mutated graph.
func TestEdgeChurnBeyondSixtyFourLandmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const n = 120
	ds := mkDataset(t, rng, n, 0, false)
	e := mkEngine(t, ds, Options{NumLandmarks: 65})
	if m := e.Landmarks().M(); m != 65 {
		t.Fatalf("%d landmarks, want 65", m)
	}
	model := seedModel(ds)
	users := locatedUsers(ds)
	for round := 0; round < 4; round++ {
		var ops []Update
		for len(ops) < 1+40*round {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				ops = append(ops, Update{Kind: OpEdgeRemove, U: u, V: v})
				delete(model, mkEdgeKey(u, v))
				continue
			}
			w := 0.05 + rng.Float64()
			ops = append(ops, Update{Kind: OpEdgeUpsert, U: u, V: v, W: w})
			model[mkEdgeKey(u, v)] = w
		}
		if err := e.ApplyUpdates(ops); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for probe := 0; probe < 3; probe++ {
			q := users[rng.Intn(len(users))]
			prm := Params{K: 1 + rng.Intn(10), Alpha: 0.05 + 0.9*rng.Float64()}
			want := oracleTopK(e, model, q, prm)
			for _, algo := range allAlgorithms {
				got, err := e.Query(algo, q, prm)
				if err != nil {
					t.Fatalf("round %d %v (q=%d): %v", round, algo, q, err)
				}
				sameRanking(t, fmt.Sprintf("round %d %v (q=%d)", round, algo, q), got, want)
			}
		}
	}
}

// TestLandmarkTablesExactEveryEpoch pins the invariant every landmark bound
// rests on: after every ApplyUpdates, every column of the published landmark
// set equals a fresh Dijkstra on the published graph. The churn is the
// benchmark's edge traffic — a user befriends a friend of a friend at the
// intermediate tie's weight, jittered (or reweights that tie when the walk
// returns) — plus removals of existing ties, in batches of 1, of 16, and
// one batch large enough that some landmark's repairs rewrite more than n
// entries and it is recomputed at the end of the batch.
func TestLandmarkTablesExactEveryEpoch(t *testing.T) {
	ds, err := gen.GowallaPreset.Dataset(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := mkEngine(t, ds, Options{Seed: 42})
	rng := rand.New(rand.NewSource(26))
	n := ds.NumUsers()
	batch := func(size int) []Update {
		g := e.Snapshot().SocialGraph()
		ops := make([]Update, 0, size)
		for len(ops) < size {
			u := graph.VertexID(rng.Intn(n))
			nb, ws := g.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			j := rng.Intn(len(nb))
			if rng.Intn(4) == 0 {
				ops = append(ops, Update{Kind: OpEdgeRemove, U: u, V: nb[j]})
				continue
			}
			mid, w := nb[j], ws[j]
			nb2, _ := g.Neighbors(mid)
			v := nb2[rng.Intn(len(nb2))]
			if v == u {
				v = mid
			}
			ops = append(ops, Update{Kind: OpEdgeUpsert, U: u, V: v, W: w * (0.5 + rng.Float64())})
		}
		return ops
	}
	check := func(step string) {
		t.Helper()
		sn := e.Snapshot()
		lm, g := sn.Landmarks(), sn.SocialGraph()
		for j, lmv := range lm.Vertices() {
			for v, want := range g.DistancesFrom(lmv) {
				if got := lm.VertexRow(graph.VertexID(v))[j]; got != want {
					t.Fatalf("%s: landmark %d dist to %d = %v, want %v", step, j, v, got, want)
				}
			}
		}
	}
	for i, size := range []int{1, 1, 1, 1, 1, 1, 1, 1, 16, 16, 16, 16, 16, 16, 16, 16} {
		if err := e.ApplyUpdates(batch(size)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("batch %d of %d ops", i, size))
	}
	if st := e.sub.Stats(); st.LandmarkRebuilds != 0 || st.LandmarkRepairs == 0 {
		t.Fatalf("small batches should repair every table in place: %+v", st)
	}
	if err := e.ApplyUpdates(batch(n)); err != nil {
		t.Fatal(err)
	}
	check(fmt.Sprintf("batch of %d ops", n))
	if st := e.sub.Stats(); st.LandmarkRebuilds == 0 {
		t.Fatalf("a %d-op batch recomputed no table: %+v", n, st)
	}
}

// TestAISCacheInvalidatedByEdgeChurn: §5.4 lists memoized on the old graph
// must not leak into results after churn.
func TestAISCacheInvalidatedByEdgeChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ds := mkDataset(t, rng, 60, 0, false)
	e := withCache(mkEngine(t, ds, Options{}), 100000) // complete lists, no fallback
	q := locatedUsers(ds)[0]
	prm := Params{K: 8, Alpha: 0.6}
	if _, err := e.Query(AISCache, q, prm); err != nil { // populate cache
		t.Fatal(err)
	}
	// Splice a super-strong edge from q to a far user: rankings must change.
	far := int32(59)
	if far == int32(q) {
		far = 58
	}
	if err := e.AddFriend(int32(q), far, 1e-6); err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(BruteForce, q, prm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Query(AISCache, q, prm)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "AISCache post-churn", got, want)
}

// outward rounds a cell's exact landmark min/max the way the aggregate index
// stores them: to the nearest float32 at or below lo, and at or above hi.
func outward(lo, hi float64) (float64, float64) {
	l, h := float32(lo), float32(hi)
	if float64(l) > lo {
		l = math.Nextafter32(l, float32(math.Inf(-1)))
	}
	if float64(h) < hi {
		h = math.Nextafter32(h, float32(math.Inf(1)))
	}
	return float64(l), float64(h)
}
