// Metamorphic and differential test harness for the SSRQ engines. It lives
// in package core_test (not core) so it can drive a bare core.Engine — the
// single-index reference, no routing layer — and the routed shard.Engine the
// public API serves from through one interface and hold them to identical
// behaviour: the correctness story of the fan-out is exactly this file.
//
// Three property families run against every algorithm, the reference and the
// routed engine, under interleaved location/edge churn:
//
//   - k-prefix: the top-k result is a prefix of the top-(k+1) result.
//   - α-consistency ("λ-monotonicity"): reported scores decompose as
//     f = α·p + (1−α)·d, the (p, d) pair per user is independent of α, and
//     raising the social weight never lets a candidate that is better only
//     spatially overtake one it already trailed — the pairwise order moves
//     monotonically with α, exactly as the score function dictates.
//   - duplicate-freedom: no user is reported twice and the query user never
//     reports itself (the property a sharded engine would break first, by
//     holding a user in two grids of one view).
//
// The differential churn test replays one randomized interleaved op stream
// into the single-index reference, a 1-shard engine and an 8-shard engine, and
// requires all three to agree exactly (IDs and scores) after every Flush —
// and to match a brute-force oracle rebuilt from scratch on an independently
// maintained edge model.
package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/shard"
	"ssrq/internal/spatial"
)

// queryEngine is the shared surface the harness drives; shard.Engine and the
// single-index reference behind syncRef both satisfy it.
type queryEngine interface {
	Query(algo core.Algorithm, q graph.VertexID, prm core.Params) (*core.Result, error)
	ApplyUpdates(ops []core.Update) error
	ApplyUpdatesAsync(ops []core.Update) error
	Flush()
}

var (
	_ queryEngine = syncRef{}
	_ queryEngine = (*shard.Engine)(nil)
)

// syncRef gives the single-index reference the routed engine's
// ApplyUpdatesAsync and Flush: every batch applies as it arrives, so Flush
// has nothing to wait for.
type syncRef struct{ *core.Engine }

func (r syncRef) ApplyUpdatesAsync(ops []core.Update) error { return r.ApplyUpdates(ops) }
func (r syncRef) Flush()                                    {}

// userLocation reads a user's position from the single-index reference's
// published snapshot.
func userLocation(e *core.Engine, id int32) (spatial.Point, bool) {
	g := e.Snapshot().Grid()
	if !g.Located(id) {
		return spatial.Point{}, false
	}
	return g.Point(id), true
}

func locator(e *core.Engine) func(int32) (spatial.Point, bool) {
	return func(id int32) (spatial.Point, bool) { return userLocation(e, id) }
}

// metaAlgorithms are the algorithms the properties cover: every one on the
// single-index reference, the served ones on a routed engine (servedBy).
var metaAlgorithms = []core.Algorithm{
	core.SFA, core.SPA, core.TSA, core.TSAQC, core.TSANoLandmark,
	core.AISBID, core.AISMinus, core.AIS, core.AISCache, core.BruteForce,
}

// servedBy narrows algos to what e answers: all of them on the single-index
// reference, shard.Served on a routed engine.
func servedBy(e queryEngine, algos []core.Algorithm) []core.Algorithm {
	if _, routed := e.(*shard.Engine); !routed {
		return algos
	}
	var out []core.Algorithm
	for _, a := range algos {
		if slices.Contains(shard.Served, a) {
			out = append(out, a)
		}
	}
	return out
}

// clusteredDS synthesizes a geo-clustered dataset (the sharding target
// workload) with a fraction of unlocated users.
func clusteredDS(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges, pts, located, err := gen.GeoSocial(gen.GeoSocialConfig{
		N: n, M: 3, PLocal: 0.6, Cities: 5, LocatedFrac: 0.85,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildGraph(n, edges, gen.DegreeProductWeights(n, edges))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.New("meta", g, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func locatedIDs(ds *dataset.Dataset) []graph.VertexID {
	var out []graph.VertexID
	for v := 0; v < ds.NumUsers(); v++ {
		if ds.Located[v] {
			out = append(out, graph.VertexID(v))
		}
	}
	return out
}

// checkDuplicateFreedom: no repeated IDs, query user absent, entries sorted
// ascending by (F, ID), at most k entries, all scores finite.
func checkDuplicateFreedom(t *testing.T, label string, res *core.Result) {
	t.Helper()
	if len(res.Entries) > res.Params.K {
		t.Fatalf("%s: %d entries exceed k=%d", label, len(res.Entries), res.Params.K)
	}
	seen := make(map[int32]bool, len(res.Entries))
	for i, e := range res.Entries {
		if e.ID == int32(res.Query) {
			t.Fatalf("%s: query user reported at rank %d", label, i)
		}
		if seen[e.ID] {
			t.Fatalf("%s: user %d reported twice", label, e.ID)
		}
		seen[e.ID] = true
		if math.IsInf(e.F, 0) || math.IsNaN(e.F) {
			t.Fatalf("%s: rank %d non-finite f=%v", label, i, e.F)
		}
		if i > 0 {
			prev := res.Entries[i-1]
			if e.F < prev.F || (e.F == prev.F && e.ID < prev.ID) {
				t.Fatalf("%s: rank %d (id=%d f=%v) out of (F, ID) order after (id=%d f=%v)",
					label, i, e.ID, e.F, prev.ID, prev.F)
			}
		}
	}
}

// checkKPrefix: the top-k result must be the first k entries of the
// top-(k+1) result.
func checkKPrefix(t *testing.T, label string, e queryEngine, algo core.Algorithm, q graph.VertexID, k int, alpha float64) {
	t.Helper()
	resK, err := e.Query(algo, q, core.Params{K: k, Alpha: alpha})
	if err != nil {
		t.Fatalf("%s: k=%d: %v", label, k, err)
	}
	resK1, err := e.Query(algo, q, core.Params{K: k + 1, Alpha: alpha})
	if err != nil {
		t.Fatalf("%s: k=%d: %v", label, k+1, err)
	}
	wantLen := len(resK1.Entries)
	if wantLen > k {
		wantLen = k
	}
	if len(resK.Entries) != wantLen {
		t.Fatalf("%s: top-%d has %d entries but top-%d has %d", label, k, len(resK.Entries), k+1, len(resK1.Entries))
	}
	for i, e := range resK.Entries {
		w := resK1.Entries[i]
		if e.ID != w.ID || math.Abs(e.F-w.F) > 1e-12 {
			t.Fatalf("%s: rank %d of top-%d (id=%d f=%v) != top-%d (id=%d f=%v)",
				label, i, k, e.ID, e.F, k+1, w.ID, w.F)
		}
	}
}

// checkAlphaConsistency: scores decompose per the ranking function, the
// (p, d) decomposition per user is α-invariant, and pairwise order between a
// spatially-better and a socially-better candidate moves monotonically as
// the social weight α rises.
func checkAlphaConsistency(t *testing.T, label string, e queryEngine, algo core.Algorithm, q graph.VertexID, k int) {
	t.Helper()
	alphas := []float64{0.2, 0.5, 0.8}
	results := make([]*core.Result, len(alphas))
	comp := make(map[int32][2]float64) // user -> (P, D) fingerprint
	for i, a := range alphas {
		res, err := e.Query(algo, q, core.Params{K: k, Alpha: a})
		if err != nil {
			t.Fatalf("%s: α=%.1f: %v", label, a, err)
		}
		results[i] = res
		for _, ent := range res.Entries {
			if math.Abs(a*ent.P+(1-a)*ent.D-ent.F) > 1e-9 {
				t.Fatalf("%s: α=%.1f user %d: f=%v != α·p+(1−α)·d (p=%v d=%v)", label, a, ent.ID, ent.F, ent.P, ent.D)
			}
			if prev, ok := comp[ent.ID]; ok {
				if math.Abs(prev[0]-ent.P) > 1e-9 || math.Abs(prev[1]-ent.D) > 1e-9 {
					t.Fatalf("%s: user %d decomposition drifts with α: (%v,%v) vs (%v,%v)",
						label, ent.ID, prev[0], prev[1], ent.P, ent.D)
				}
			} else {
				comp[ent.ID] = [2]float64{ent.P, ent.D}
			}
		}
	}
	// Pairwise monotonicity across adjacent α levels: a candidate that is
	// better only spatially (smaller d, larger p) and already trails at a
	// lower social weight must keep trailing at a higher one.
	for step := 0; step < len(alphas)-1; step++ {
		lo, hi := results[step], results[step+1]
		rankLo := make(map[int32]int, len(lo.Entries))
		for i, ent := range lo.Entries {
			rankLo[ent.ID] = i
		}
		rankHi := make(map[int32]int, len(hi.Entries))
		for i, ent := range hi.Entries {
			rankHi[ent.ID] = i
		}
		for _, a := range lo.Entries {
			for _, b := range lo.Entries {
				// a spatially better, b socially better, a behind b at low α.
				if !(a.D < b.D-1e-12 && a.P > b.P+1e-12 && rankLo[a.ID] > rankLo[b.ID]) {
					continue
				}
				ra, okA := rankHi[a.ID]
				rb, okB := rankHi[b.ID]
				if okA && okB && ra < rb {
					t.Fatalf("%s: raising α %0.1f→%0.1f promoted spatially-better user %d (p=%v d=%v) above %d (p=%v d=%v)",
						label, alphas[step], alphas[step+1], a.ID, a.P, a.D, b.ID, b.P, b.D)
				}
				if !okA && okB && rb >= len(hi.Entries) {
					t.Fatalf("%s: impossible rank for %d", label, b.ID)
				}
			}
		}
	}
}

// TestMetamorphicProperties runs the property suite against both engine
// flavors, re-checking after every interleaved churn round.
func TestMetamorphicProperties(t *testing.T) {
	ds := clusteredDS(t, 220, 101)
	opts := core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 101}
	mono, err := core.NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	mono.ResetCache(25)
	sharded, err := shard.New(ds, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	engines := []struct {
		name string
		e    queryEngine
	}{{"single-index", syncRef{mono}}, {"S=4", sharded}}

	users := locatedIDs(ds)
	b, _ := spatial.BoundingRect(ds.Pts, ds.Located)
	rng := rand.New(rand.NewSource(202))
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		if round > 0 {
			// Interleaved churn applied identically to both flavors.
			for i := 0; i < 25; i++ {
				switch rng.Intn(4) {
				case 0:
					u, v := rng.Int31n(int32(ds.NumUsers())), rng.Int31n(int32(ds.NumUsers()))
					if u == v {
						continue
					}
					w := 0.05 + rng.Float64()
					for _, eng := range engines {
						if err := addFriendAsync(eng.e, u, v, w); err != nil {
							t.Fatal(err)
						}
					}
				case 1:
					u, v := rng.Int31n(int32(ds.NumUsers())), rng.Int31n(int32(ds.NumUsers()))
					if u == v {
						continue
					}
					for _, eng := range engines {
						if err := removeFriendAsync(eng.e, u, v); err != nil {
							t.Fatal(err)
						}
					}
				default:
					id := int32(users[rng.Intn(len(users))])
					to := spatial.Point{X: b.MinX + rng.Float64()*b.Width(), Y: b.MinY + rng.Float64()*b.Height()}
					for _, eng := range engines {
						if err := moveUserAsync(eng.e, id, to); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for _, eng := range engines {
				eng.e.Flush()
			}
		}
		for probe := 0; probe < 2; probe++ {
			q := users[rng.Intn(len(users))]
			if _, ok := userLocation(mono, int32(q)); !ok {
				continue
			}
			k := 3 + rng.Intn(10)
			alpha := 0.1 + 0.8*rng.Float64()
			for _, eng := range engines {
				for _, algo := range servedBy(eng.e, metaAlgorithms) {
					label := fmt.Sprintf("round %d %s %v q=%d", round, eng.name, algo, q)
					res, err := eng.e.Query(algo, q, core.Params{K: k, Alpha: alpha})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkDuplicateFreedom(t, label, res)
					checkKPrefix(t, label, eng.e, algo, q, k, alpha)
				}
				// α-consistency is algorithm-independent; probe the flagship
				// and one baseline per flavor to keep the round bounded.
				checkAlphaConsistency(t, fmt.Sprintf("round %d %s AIS q=%d", round, eng.name, q), eng.e, core.AIS, q, k)
				checkAlphaConsistency(t, fmt.Sprintf("round %d %s TSA q=%d", round, eng.name, q), eng.e, core.TSA, q, k)
			}
		}
	}
}

// ---- differential churn test ----

type edgeKey [2]int32

func mkKey(u, v int32) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// seedEdgeModel captures the dataset's normalized edges as the independent
// oracle model.
func seedEdgeModel(ds *dataset.Dataset) map[edgeKey]float64 {
	model := make(map[edgeKey]float64)
	for v := 0; v < ds.NumUsers(); v++ {
		nbrs, ws := ds.G.Neighbors(graph.VertexID(v))
		for i, u := range nbrs {
			model[mkKey(int32(v), u)] = ws[i]
		}
	}
	return model
}

// oracleEntries computes the expected top-k fully independently: exact
// Dijkstra on a graph rebuilt from the edge model, locations read through
// the reference engine's published epoch, same ranking and tie rules.
func oracleEntries(n int, model map[edgeKey]float64, locate func(int32) (spatial.Point, bool),
	q graph.VertexID, prm core.Params) []core.Entry {
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

// TestDifferentialShardChurnEquivalence extends the core package's
// TestRandomizedSocialChurnEquivalence across shard counts: one randomized
// interleaved stream of moves and edge ops replays into the single-index reference (a bare core.Engine),
// a 1-shard engine and an 8-shard engine; after every Flush all three must
// agree exactly — IDs included — with each other and with the independent
// brute-force oracle.
func TestDifferentialShardChurnEquivalence(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			n := 80 + rng.Intn(120)
			ds := clusteredDS(t, n, int64(trial))
			opts := core.Options{
				GridS: 3 + rng.Intn(3), GridLevels: 1 + rng.Intn(2),
				NumLandmarks: 2 + rng.Intn(5),
			}
			rng.Intn(30) // a deleted option's draw, kept so every later draw stays put
			opts.Seed = int64(trial)
			rng.Intn(32) // the deleted queue-batch option's draw, kept so every later draw stays put
			mono, err := core.NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
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

			for round := 0; round < 5; round++ {
				for op := 0; op < 5+rng.Intn(25); op++ {
					sync := rng.Intn(2) == 0
					switch rng.Intn(6) {
					case 0, 1: // edge upsert
						u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
						if u == v {
							continue
						}
						w := 0.05 + rng.Float64()
						for _, e := range engines {
							var err error
							if sync {
								err = e.ApplyUpdates([]core.Update{{Kind: core.OpEdgeUpsert, U: u, V: v, W: w}})
							} else {
								err = addFriendAsync(e, u, v, w)
							}
							if err != nil {
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
							var err error
							if sync {
								err = e.ApplyUpdates([]core.Update{{Kind: core.OpEdgeRemove, U: u, V: v}})
							} else {
								err = removeFriendAsync(e, u, v)
							}
							if err != nil {
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
					default: // move (random point: frequently crosses shards)
						id := int32(users[rng.Intn(len(users))])
						to := spatial.Point{X: b.MinX + rng.Float64()*b.Width(), Y: b.MinY + rng.Float64()*b.Height()}
						for _, e := range engines {
							var err error
							if sync {
								err = e.ApplyUpdates([]core.Update{{ID: id, To: to}})
							} else {
								err = moveUserAsync(e, id, to)
							}
							if err != nil {
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
					prm := core.Params{K: 1 + rng.Intn(12), Alpha: 0.05 + 0.9*rng.Float64()}
					want := oracleEntries(n, model, locator(mono), q, prm)
					for ei, e := range engines {
						for _, algo := range servedBy(e, []core.Algorithm{core.AIS, core.TSA, core.SFA, core.SPA, core.BruteForce}) {
							got, err := e.Query(algo, q, prm)
							if err != nil {
								t.Fatalf("round %d %s %v (q=%d): %v", round, names[ei], algo, q, err)
							}
							assertOracleMatch(t, fmt.Sprintf("round %d %s %v q=%d k=%d α=%.3f", round, names[ei], algo, q, prm.K, prm.Alpha), got.Entries, want)
						}
						// Exactness against the reference on the flagship: routed
						// results must equal the single index's bit for bit.
						if ei > 0 {
							ref, err := engines[0].Query(core.AIS, q, prm)
							if err != nil {
								t.Fatal(err)
							}
							got, err := e.Query(core.AIS, q, prm)
							if err != nil {
								t.Fatal(err)
							}
							assertExactMatch(t, fmt.Sprintf("round %d %s vs single-index q=%d", round, names[ei], q), got.Entries, ref.Entries)
						}
					}
				}
			}
			// Post-churn: final exact sweep.
			q := users[rng.Intn(len(users))]
			if _, ok := userLocation(mono, int32(q)); ok {
				prm := core.Params{K: 10, Alpha: 0.3}
				want := oracleEntries(n, model, locator(mono), q, prm)
				for ei, e := range engines {
					got, err := e.Query(core.AIS, q, prm)
					if err != nil {
						t.Fatal(err)
					}
					assertOracleMatch(t, "post-churn "+names[ei], got.Entries, want)
				}
			}
		})
	}
}

// assertOracleMatch compares against the independently-computed oracle:
// scores to float tolerance, IDs exact wherever scores are distinct.
func assertOracleMatch(t *testing.T, label string, got, want []core.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Abs(g.F-w.F) > 1e-9 {
			t.Fatalf("%s: rank %d f=%v, want %v", label, i, g.F, w.F)
		}
		if g.ID != w.ID && math.Abs(g.F-w.F) > 1e-12 {
			t.Fatalf("%s: rank %d id=%d, want %d", label, i, g.ID, w.ID)
		}
	}
}

// assertExactMatch requires rank-by-rank agreement: scores within 1e-12
// (incremental landmark repair vs batch-boundary differences can pick a
// different — equally shortest — path representative, which shifts a score
// by an ulp) and identical IDs except across such ulp-level ties.
func assertExactMatch(t *testing.T, label string, got, want []core.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Abs(g.F-w.F) > 1e-12 {
			t.Fatalf("%s: rank %d f=%v, want %v", label, i, g.F, w.F)
		}
		if g.ID != w.ID {
			t.Fatalf("%s: rank %d id=%d, want %d (f %v vs %v)", label, i, g.ID, w.ID, g.F, w.F)
		}
	}
}

// Single-op forms of ApplyUpdatesAsync, the asynchronous mutation entry
// point.

type enqueuer interface {
	ApplyUpdatesAsync(ops []core.Update) error
}

func moveUserAsync(e enqueuer, id int32, to spatial.Point) error {
	return e.ApplyUpdatesAsync([]core.Update{{ID: id, To: to}})
}

func removeUserLocationAsync(e enqueuer, id int32) error {
	return e.ApplyUpdatesAsync([]core.Update{{ID: id, Remove: true}})
}

func addFriendAsync(e enqueuer, u, v int32, w float64) error {
	return e.ApplyUpdatesAsync([]core.Update{{Kind: core.OpEdgeUpsert, U: u, V: v, W: w}})
}

func removeFriendAsync(e enqueuer, u, v int32) error {
	return e.ApplyUpdatesAsync([]core.Update{{Kind: core.OpEdgeRemove, U: u, V: v}})
}
