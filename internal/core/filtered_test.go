// Differential equivalence for attribute-filtered queries: one randomized
// interleaved stream of moves and edge ops replays into the single-index reference (a bare core.Engine),
// a 1-shard engine and an 8-shard engine built over a labeled dataset; after
// every Flush all three must agree — for several filters per probe — with an
// independent brute oracle that applies the filter by definition (skip every
// user whose label set misses the mask), and with each other exactly.
package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/shard"
	"ssrq/internal/spatial"
)

// labeledClusteredDS is clusteredDS plus a fixed per-user label assignment:
// most users carry exactly one of six labels, a slice stays unlabeled (label
// 0 — must never match any nonzero filter).
func labeledClusteredDS(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	ds := clusteredDS(t, n, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5be1))
	labels := make([]uint64, n)
	for v := range labels {
		if rng.Float64() < 0.15 {
			continue // unlabeled
		}
		labels[v] = 1 << uint(rng.Intn(6))
	}
	if err := ds.SetLabels(labels); err != nil {
		t.Fatal(err)
	}
	return ds
}

// filteredOracleEntries is oracleEntries with the filter applied by
// definition: exact Dijkstra over the model graph, then drop every candidate
// whose labels miss the mask before ranking.
func filteredOracleEntries(n int, model map[edgeKey]float64, locate func(int32) (spatial.Point, bool),
	labels []uint64, q graph.VertexID, prm core.Params) []core.Entry {
	b := graph.NewBuilder(n)
	for k, w := range model {
		_ = b.AddEdge(k[0], k[1], w)
	}
	dist := b.MustBuild().DistancesFrom(q)
	qpt, qok := locate(int32(q))
	var cands []core.Entry
	for v := 0; v < n; v++ {
		if graph.VertexID(v) == q {
			continue
		}
		if prm.Filter != 0 && labels[v]&prm.Filter == 0 {
			continue
		}
		p := dist[v]
		d := math.Inf(1)
		if pt, ok := locate(int32(v)); ok && qok {
			d = pt.Dist(qpt)
		}
		f := prm.Alpha*p + (1-prm.Alpha)*d
		if math.IsInf(f, 1) || math.IsNaN(f) {
			continue
		}
		cands = append(cands, core.Entry{ID: int32(v), F: f, P: p, D: d})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].F != cands[b].F {
			return cands[a].F < cands[b].F
		}
		return cands[a].ID < cands[b].ID
	})
	if len(cands) > prm.K {
		cands = cands[:prm.K]
	}
	return cands
}

// TestFilteredDifferentialEquivalence holds every algorithm and engine flavor
// to exact filtered results under interleaved location + edge churn.
func TestFilteredDifferentialEquivalence(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9100 + trial)))
			n := 90 + rng.Intn(110)
			ds := labeledClusteredDS(t, n, int64(trial))
			opts := core.Options{
				GridS: 3 + rng.Intn(3), GridLevels: 1 + rng.Intn(2),
				NumLandmarks: 2 + rng.Intn(5),
			}
			cacheT := 4 + rng.Intn(30)
			opts.Seed = int64(trial)
			rng.Intn(32) // the deleted queue-batch option's draw, kept so every later draw stays put
			mono, err := core.NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			mono.ResetCache(cacheT)
			s1, err := shard.New(ds, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s1.Close()
			s8, err := shard.New(ds, 8, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s8.Close()
			engines := []queryEngine{syncRef{mono}, s1, s8}
			names := []string{"single-index", "S=1", "S=8"}

			model := seedEdgeModel(ds)
			users := locatedIDs(ds)
			b, _ := spatial.BoundingRect(ds.Pts, ds.Located)

			// Filters per probe: unfiltered, one label, a two-label union,
			// and a mask no user carries (result must be empty).
			filters := []uint64{0, 1 << 2, (1 << 0) | (1 << 4), 1 << 62}

			for round := 0; round < 4; round++ {
				for op := 0; op < 5+rng.Intn(20); op++ {
					switch rng.Intn(6) {
					case 0, 1: // edge upsert
						u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
						if u == v {
							continue
						}
						w := 0.05 + rng.Float64()
						for _, e := range engines {
							if err := addFriendAsync(e, u, v, w); err != nil {
								t.Fatal(err)
							}
						}
						model[mkKey(u, v)] = w
					case 2: // edge removal
						u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
						if u == v {
							continue
						}
						for _, e := range engines {
							if err := removeFriendAsync(e, u, v); err != nil {
								t.Fatal(err)
							}
						}
						delete(model, mkKey(u, v))
					case 3: // location removal
						id := int32(users[rng.Intn(len(users))])
						for _, e := range engines {
							if err := removeUserLocationAsync(e, id); err != nil {
								t.Fatal(err)
							}
						}
					default: // move
						id := int32(users[rng.Intn(len(users))])
						to := spatial.Point{X: b.MinX + rng.Float64()*b.Width(), Y: b.MinY + rng.Float64()*b.Height()}
						for _, e := range engines {
							if err := moveUserAsync(e, id, to); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for _, e := range engines {
					e.Flush()
				}

				for probe := 0; probe < 3; probe++ {
					q := users[rng.Intn(len(users))]
					if _, ok := userLocation(mono, int32(q)); !ok {
						continue
					}
					for _, filter := range filters {
						prm := core.Params{K: 1 + rng.Intn(10), Alpha: 0.05 + 0.9*rng.Float64(), Filter: filter}
						want := filteredOracleEntries(n, model, locator(mono), ds.Labels, q, prm)
						if filter == 1<<62 && len(want) != 0 {
							t.Fatalf("oracle found users carrying the reserved probe label")
						}
						for ei, e := range engines {
							for _, algo := range servedBy(e, []core.Algorithm{core.AIS, core.AISCache, core.TSA, core.SFA, core.SPA, core.BruteForce}) {
								got, err := e.Query(algo, q, prm)
								if err != nil {
									t.Fatalf("round %d %s %v (q=%d filter=%#x): %v", round, names[ei], algo, q, filter, err)
								}
								assertOracleMatch(t, fmt.Sprintf("round %d %s %v q=%d k=%d α=%.3f filter=%#x",
									round, names[ei], algo, q, prm.K, prm.Alpha, filter), got.Entries, want)
								// A filtered result may never contain a
								// non-matching user, whatever the bound said.
								for _, ent := range got.Entries {
									if filter != 0 && ds.Labels[ent.ID]&filter == 0 {
										t.Fatalf("round %d %s %v: user %d (labels %#x) leaked through filter %#x",
											round, names[ei], algo, ent.ID, ds.Labels[ent.ID], filter)
									}
								}
							}
							if ei > 0 {
								ref, err := engines[0].Query(core.AIS, q, prm)
								if err != nil {
									t.Fatal(err)
								}
								got, err := e.Query(core.AIS, q, prm)
								if err != nil {
									t.Fatal(err)
								}
								assertExactMatch(t, fmt.Sprintf("round %d %s vs single-index q=%d filter=%#x", round, names[ei], q, filter), got.Entries, ref.Entries)
							}
						}
					}
				}
			}
		})
	}
}

// TestLabelMasksPruneClusteredUrbanQueries: on the urban preset, per-city
// labels align with the spatial clusters, so a query filtered on its own city
// (half the time widened by a second one) must let AIS discard whole grid
// cells by their OR'd label masks. Zero cell-mask prunes over the query set
// means the label index is dead weight, which is a failure even when every
// answer is exact; the answers of AIS, TSA and SFA are held to the
// brute-force oracle under the same filter as well.
func TestLabelMasksPruneClusteredUrbanQueries(t *testing.T) {
	const seed = 42
	ds, err := gen.UrbanPreset.Dataset(1500, seed)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Labels == nil {
		t.Fatal("urban preset carries no labels")
	}
	e, err := core.NewEngine(ds, core.Options{GridS: 10, GridLevels: 2, NumLandmarks: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	users := locatedIDs(ds)
	rand.New(rand.NewSource(seed)).Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	users = users[:20]

	rng := rand.New(rand.NewSource(seed + 77))
	prunes := map[core.Algorithm]int{}
	for _, q := range users {
		filter := ds.Labels[q]
		if filter == 0 {
			filter = 1 << uint(rng.Intn(8))
		}
		if rng.Intn(2) == 0 {
			filter |= 1 << uint(rng.Intn(8))
		}
		prm := core.Params{K: 30, Alpha: 0.3, Filter: filter}
		want, err := e.Query(core.BruteForce, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []core.Algorithm{core.AIS, core.TSA, core.SFA} {
			got, err := e.Query(algo, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			prunes[algo] += got.Stats.LabelCellPrunes
			label := fmt.Sprintf("%v q=%d filter=%#x", algo, q, filter)
			if len(got.Entries) != len(want.Entries) {
				t.Fatalf("%s: %d entries, oracle has %d", label, len(got.Entries), len(want.Entries))
			}
			for i := range got.Entries {
				g, w := got.Entries[i], want.Entries[i]
				if math.Abs(g.F-w.F) > 1e-9 || (g.ID != w.ID && math.Abs(g.F-w.F) > 1e-12) {
					t.Fatalf("%s rank %d: (id=%d f=%v), oracle (id=%d f=%v)", label, i, g.ID, g.F, w.ID, w.F)
				}
			}
		}
	}
	t.Logf("cell-mask prunes over %d queries: %v", len(users), prunes)
	if prunes[core.AIS] == 0 {
		t.Fatalf("AIS made zero cell-mask prunes over %d clustered urban queries: the label index is not pruning", len(users))
	}
}
