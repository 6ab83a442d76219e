package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ssrq/internal/dataset"
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
		p := dist[v]
		d := g.EuclideanDist(q, id)
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
			// Small repair budgets on some trials force the disable+rebuild
			// path; huge ones keep every landmark on the incremental path.
			budget := 1 << 30
			if trial%2 == 1 {
				budget = 4
			}
			e := mkEngine(t, ds, Options{
				GridS:                3 + rng.Intn(4),
				GridLevels:           1 + rng.Intn(2),
				NumLandmarks:         2 + rng.Intn(6),
				CacheT:               4 + rng.Intn(40),
				Seed:                 int64(trial),
				LandmarkRepairBudget: budget,
				UpdateMaxBatch:       1 + rng.Intn(64),
			})
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
							err = removeFriend(e, u, v)
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
					want := oracleTopK(e, model, q, prm)
					for _, algo := range allNonCHAlgorithms {
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
							t.Fatalf("round %d: LowerBound(%d,%d)=%v > true %v (disabled=%d)", round, q, v, lo, dist[v], lm.NumDisabled())
						}
						if hi < dist[v]-1e-9 {
							t.Fatalf("round %d: UpperBound(%d,%d)=%v < true %v", round, q, v, hi, dist[v])
						}
					}
				}
			}
			// Final: restore disabled landmarks and re-verify everything.
			e.RebuildLandmarks()
			if got := e.SocialStats().DisabledLandmarks; got != 0 {
				t.Fatalf("%d landmarks disabled after RebuildLandmarks", got)
			}
			q := users[rng.Intn(len(users))]
			if e.Snapshot().Grid().Located(q) {
				prm := Params{K: 10, Alpha: 0.3}
				want := oracleTopK(e, model, q, prm)
				got, err := e.Query(AIS, q, prm)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, "post-rebuild AIS", got, want)
			}
		})
	}
}

// TestConcurrentSocialAndLocationChurnStress is the -race proof for the
// social dimension: edge churners, movers and queriers hammer the engine
// simultaneously. Every mid-flight query must be a valid top-k over *some*
// published epoch (never a half-applied edge), and every sampled landmark
// bound must be admissible against the exact distances of the same snapshot
// it came from. After the dust settles the index must agree exactly with
// brute force on the mutated graph.
func TestConcurrentSocialAndLocationChurnStress(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const n = 160
	ds := mkDataset(t, rng, n, 0, false)
	e := mkEngine(t, ds, Options{GridS: 5, GridLevels: 2, CacheT: 20, LandmarkRepairBudget: 16})
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
		numQueriers = 3
		numEdgers   = 2
		numMovers   = 1
		queriesEach = 25
		edgeOpsEach = 120
		movesEach   = 80
		numAuditors = 1
		auditsEach  = 10
	)
	algos := []Algorithm{AIS, TSA, SFA, SPA, AISMinus, AISCache}
	var wg sync.WaitGroup
	var queriesDone, edgeOpsDone atomic.Int64
	errCh := make(chan error, numQueriers+numEdgers+numMovers+numAuditors)

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
	e.RebuildLandmarks()
	prm := Params{K: 10, Alpha: 0.3}
	for probe := 0; probe < 4; probe++ {
		q := queryable[rng.Intn(len(queryable))]
		want, err := e.Query(BruteForce, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range allNonCHAlgorithms {
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
	e := mkEngine(t, ds, Options{})
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
	if err := removeFriend(e, 0, 1); err != nil {
		t.Fatalf("valid removal rejected: %v", err)
	}
}

// TestEdgeChurnRejectedBeyondLandmarkCap: engines with more than 64
// landmarks still build and answer queries, but refuse edge churn instead of
// silently serving stale landmark tables.
func TestEdgeChurnRejectedBeyondLandmarkCap(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ds := mkDataset(t, rng, 120, 0, false)
	e := mkEngine(t, ds, Options{NumLandmarks: 70})
	defer e.Close()
	if err := e.AddFriend(0, 1, 0.5); err == nil {
		t.Fatal("edge churn accepted with 70 landmarks")
	}
	q := locatedUsers(ds)[0]
	if _, err := e.Query(AIS, q, Params{K: 5, Alpha: 0.5}); err != nil {
		t.Fatalf("query failed on 70-landmark engine: %v", err)
	}
}

// TestAISCacheInvalidatedByEdgeChurn: §5.4 lists memoized on the old graph
// must not leak into results after churn.
func TestAISCacheInvalidatedByEdgeChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ds := mkDataset(t, rng, 60, 0, false)
	e := mkEngine(t, ds, Options{CacheT: 100000}) // complete lists, no fallback
	defer e.Close()
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

// TestUpdaterCoalescesEdgeOps checks last-write-wins per unordered pair
// through the async pipeline.
func TestUpdaterCoalescesEdgeOps(t *testing.T) {
	ops := []Update{
		{Kind: OpEdgeUpsert, U: 1, V: 2, W: 5},
		{Kind: OpEdgeUpsert, U: 2, V: 1, W: 7}, // same pair, reversed order
		{ID: 1, To: spatial.Point{X: 0.5, Y: 0.5}},
		{Kind: OpEdgeRemove, U: 3, V: 4},
		{Kind: OpEdgeUpsert, U: 3, V: 4, W: 2}, // resurrects the pair
		{ID: 1, To: spatial.Point{X: 0.9, Y: 0.9}},
	}
	out := coalesceUpdates(ops)
	if len(out) != 3 {
		t.Fatalf("coalesced to %d ops, want 3: %+v", len(out), out)
	}
	if out[0].Kind != OpEdgeUpsert || out[0].W != 7 {
		t.Fatalf("pair (1,2) did not keep newest: %+v", out[0])
	}
	if out[1].Kind != OpLocation || out[1].To.X != 0.9 {
		t.Fatalf("location op did not keep newest: %+v", out[1])
	}
	if out[2].Kind != OpEdgeUpsert || out[2].W != 2 {
		t.Fatalf("pair (3,4) did not keep newest: %+v", out[2])
	}
}
