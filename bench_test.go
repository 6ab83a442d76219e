// Benchmarks mirroring every table and figure of the paper's evaluation
// (§6), plus ablations over the system parameters of Table 3.
// These run at a small fixed scale so `go test -bench=.` stays minutes-
// bounded; cmd/ssrq-bench runs the full parameter sweeps at configurable
// scales and prints paper-style tables.
package ssrq_test

import (
	"fmt"
	"sync"
	"testing"

	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/exp"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
	"ssrq/internal/shard"
	"ssrq/internal/spatial"
)

const (
	benchSeed     = 42
	benchQueryCnt = 16
)

var benchSizes = map[string]int{"gowalla": 2500, "foursquare": 4000, "twitter": 2000}

type benchEngine struct {
	eng   *core.Engine
	ds    *dataset.Dataset
	users []graph.VertexID
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchEngine{}
)

// getEngine builds (once) an engine for the preset with the given options.
func getEngine(b *testing.B, preset string, mutate func(*core.Options)) *benchEngine {
	b.Helper()
	key := preset
	opts := exp.EngineOptions(exp.DefaultS, benchSeed)
	if mutate != nil {
		mutate(&opts)
		key = fmt.Sprintf("%s/%+v", preset, opts)
	}
	benchMu.Lock()
	defer benchMu.Unlock()
	if be, ok := benchCache[key]; ok {
		return be
	}
	var p gen.Preset
	switch preset {
	case "gowalla":
		p = gen.GowallaPreset
	case "foursquare":
		p = gen.FoursquarePreset
	case "twitter":
		p = gen.TwitterPreset
	default:
		b.Fatalf("unknown preset %s", preset)
	}
	ds, err := p.Dataset(benchSizes[preset], benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(ds, opts)
	if err != nil {
		b.Fatal(err)
	}
	be := &benchEngine{eng: eng, ds: ds, users: exp.QueryUsers(ds, benchQueryCnt, benchSeed)}
	benchCache[key] = be
	return be
}

// benchQueries runs the query workload round-robin for b.N iterations.
func benchQueries(b *testing.B, be *benchEngine, algo core.Algorithm, k int, alpha float64) {
	b.Helper()
	prm := core.Params{K: k, Alpha: alpha}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := be.users[i%len(be.users)]
		if _, err := be.eng.Query(algo, q, prm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Stats regenerates the Table 2 dataset statistics.
func BenchmarkTable2Stats(b *testing.B) {
	for _, preset := range []string{"gowalla", "foursquare", "twitter"} {
		be := getEngine(b, preset, nil)
		b.Run(preset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := be.ds.Stats()
				if st.NumVertices == 0 {
					b.Fatal("empty stats")
				}
			}
		})
	}
}

// BenchmarkFig7aHops measures the hop-statistics study (furthest result
// member per query).
func BenchmarkFig7aHops(b *testing.B) {
	be := getEngine(b, "gowalla", nil)
	prm := core.Params{K: exp.DefaultK, Alpha: exp.DefaultAlpha}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := be.users[i%len(be.users)]
		res, err := be.eng.Query(core.AIS, q, prm)
		if err != nil {
			b.Fatal(err)
		}
		pending := res.IDSet()
		it := graph.NewDijkstraIterator(be.ds.G, q)
		worst := int32(0)
		for len(pending) > 0 {
			v, _, ok := it.Next()
			if !ok {
				break
			}
			if pending[v] {
				delete(pending, v)
				if h := it.HopsOf(v); h > worst {
					worst = h
				}
			}
		}
	}
}

// BenchmarkFig7bJaccard measures the SSRQ-vs-single-domain similarity study.
func BenchmarkFig7bJaccard(b *testing.B) {
	be := getEngine(b, "foursquare", nil)
	prm := core.Params{K: exp.DefaultK, Alpha: exp.DefaultAlpha}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := be.users[i%len(be.users)]
		res, err := be.eng.Query(core.AIS, q, prm)
		if err != nil {
			b.Fatal(err)
		}
		ssrqSet := res.IDSet()
		knn := be.eng.Grid().KNN(be.ds.Pts[q], prm.K, func(id int32) bool { return id == int32(q) })
		inter := 0
		for _, nb := range knn {
			if ssrqSet[nb.ID] {
				inter++
			}
		}
	}
}

// BenchmarkFig8RuntimeVsK is the main comparison: every algorithm across k,
// on the Gowalla and Foursquare substitutes (run-time chart; the pop-ratio
// chart shares the same executions and is reported by cmd/ssrq-bench).
func BenchmarkFig8RuntimeVsK(b *testing.B) {
	for _, preset := range []string{"gowalla", "foursquare"} {
		be := getEngine(b, preset, nil)
		for _, algo := range []core.Algorithm{core.SFA, core.SPA, core.TSA, core.TSAQC, core.AIS} {
			for _, k := range []int{10, 30, 50} {
				b.Run(fmt.Sprintf("%s/%v/k=%d", preset, algo, k), func(b *testing.B) {
					benchQueries(b, be, algo, k, exp.DefaultAlpha)
				})
			}
		}
	}
}

// BenchmarkFig9RuntimeVsAlpha sweeps the preference parameter.
func BenchmarkFig9RuntimeVsAlpha(b *testing.B) {
	be := getEngine(b, "gowalla", nil)
	for _, algo := range []core.Algorithm{core.SFA, core.SPA, core.TSA, core.TSAQC, core.AIS} {
		for _, alpha := range []float64{0.1, 0.5, 0.9} {
			b.Run(fmt.Sprintf("%v/alpha=%.1f", algo, alpha), func(b *testing.B) {
				benchQueries(b, be, algo, exp.DefaultK, alpha)
			})
		}
	}
}

// BenchmarkFig10AISVersions compares AIS-BID / AIS⁻ / AIS.
func BenchmarkFig10AISVersions(b *testing.B) {
	for _, preset := range []string{"gowalla", "foursquare"} {
		be := getEngine(b, preset, nil)
		for _, algo := range []core.Algorithm{core.AISBID, core.AISMinus, core.AIS} {
			b.Run(fmt.Sprintf("%s/%v", preset, algo), func(b *testing.B) {
				benchQueries(b, be, algo, exp.DefaultK, exp.DefaultAlpha)
			})
		}
	}
}

// BenchmarkFig11Precomputation sweeps the §5.4 cached-list length t.
func BenchmarkFig11Precomputation(b *testing.B) {
	be := getEngine(b, "gowalla", nil)
	for _, t := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			be.eng.ResetCache(t)
			be.eng.Precompute(be.users)
			benchQueries(b, be, core.AISCache, exp.DefaultK, exp.DefaultAlpha)
		})
	}
	b.Run("AIS-baseline", func(b *testing.B) {
		benchQueries(b, be, core.AIS, exp.DefaultK, exp.DefaultAlpha)
	})
}

// BenchmarkFig12Granularity sweeps the grid granularity s.
func BenchmarkFig12Granularity(b *testing.B) {
	for _, s := range []int{5, 10, 25} {
		s := s
		be := getEngine(b, "gowalla", func(o *core.Options) { o.GridS = s })
		for _, algo := range []core.Algorithm{core.SPA, core.AIS} {
			b.Run(fmt.Sprintf("s=%d/%v", s, algo), func(b *testing.B) {
				benchQueries(b, be, algo, exp.DefaultK, exp.DefaultAlpha)
			})
		}
	}
}

// BenchmarkFig13Twitter runs the high-degree dataset.
func BenchmarkFig13Twitter(b *testing.B) {
	be := getEngine(b, "twitter", nil)
	for _, algo := range []core.Algorithm{core.SFA, core.SPA, core.TSA, core.TSAQC, core.AIS} {
		b.Run(algo.String(), func(b *testing.B) {
			benchQueries(b, be, algo, exp.DefaultK, exp.DefaultAlpha)
		})
	}
}

// BenchmarkFig14aCorrelation compares positive / independent / negative
// social↔spatial correlation (locations re-synthesized around the query).
func BenchmarkFig14aCorrelation(b *testing.B) {
	base := getEngine(b, "foursquare", nil)
	for _, sign := range []gen.CorrelationSign{gen.PositiveCorrelation, gen.IndependentCorrelation, gen.NegativeCorrelation} {
		q := base.users[0]
		ds, err := gen.CorrelatedDataset(base.ds, q, sign, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(ds, exp.EngineOptions(exp.DefaultS, benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		be := &benchEngine{eng: eng, ds: ds, users: []graph.VertexID{q}}
		b.Run(sign.String(), func(b *testing.B) {
			benchQueries(b, be, core.AIS, exp.DefaultK, exp.DefaultAlpha)
		})
	}
}

// BenchmarkFig14bScalability sweeps the data size via forest-fire samples.
func BenchmarkFig14bScalability(b *testing.B) {
	base := getEngine(b, "foursquare", nil)
	for _, size := range []int{1000, 2000, 4000} {
		var ds *dataset.Dataset
		var err error
		if size >= base.ds.NumUsers() {
			ds = base.ds
		} else if ds, err = gen.SampledDataset(base.ds, size, benchSeed); err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(ds, exp.EngineOptions(exp.DefaultS, benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		be := &benchEngine{eng: eng, ds: ds, users: exp.QueryUsers(ds, benchQueryCnt, benchSeed)}
		for _, algo := range []core.Algorithm{core.SFA, core.AIS} {
			b.Run(fmt.Sprintf("n=%d/%v", size, algo), func(b *testing.B) {
				benchQueries(b, be, algo, exp.DefaultK, exp.DefaultAlpha)
			})
		}
	}
}

// --- Ablations (Table 3's system parameters; GraphDist's own ablation is in EXPERIMENTS.md) ---

// BenchmarkAblationLandmarkCount varies M (the paper fine-tuned M=8).
func BenchmarkAblationLandmarkCount(b *testing.B) {
	for _, m := range []int{4, 8, 16} {
		m := m
		be := getEngine(b, "gowalla", func(o *core.Options) { o.NumLandmarks = m })
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			benchQueries(b, be, core.AIS, exp.DefaultK, exp.DefaultAlpha)
		})
	}
}

// BenchmarkAblationLandmarkStrategy compares selection strategies.
func BenchmarkAblationLandmarkStrategy(b *testing.B) {
	for _, st := range []landmark.Strategy{landmark.Farthest, landmark.HighestDegree, landmark.Random} {
		st := st
		be := getEngine(b, "gowalla", func(o *core.Options) { o.LandmarkStrategy = st })
		b.Run(st.String(), func(b *testing.B) {
			benchQueries(b, be, core.AIS, exp.DefaultK, exp.DefaultAlpha)
		})
	}
}

// BenchmarkAblationGridLevels varies the number of stored grid levels (the
// paper keeps the lowest two of a three-level hierarchy).
func BenchmarkAblationGridLevels(b *testing.B) {
	for _, l := range []int{1, 2, 3} {
		l := l
		be := getEngine(b, "gowalla", func(o *core.Options) { o.GridLevels = l; o.GridS = 6 })
		b.Run(fmt.Sprintf("levels=%d", l), func(b *testing.B) {
			benchQueries(b, be, core.AIS, exp.DefaultK, exp.DefaultAlpha)
		})
	}
}

// --- Concurrent serving ---

// BenchmarkQueriesUnderConcurrentMovers measures query throughput while
// background goroutines continuously relocate users, one synchronous write
// each — the live-updates workload the epoch/snapshot design
// exists for. Queries are lock-free against published epochs, so on
// multi-core hosts the movers= series stay close to movers=0 instead of
// serializing behind the writers.
func BenchmarkQueriesUnderConcurrentMovers(b *testing.B) {
	be := getEngine(b, "twitter", nil) // all users located
	prm := core.Params{K: exp.DefaultK, Alpha: exp.DefaultAlpha}
	n := be.ds.NumUsers()
	for _, movers := range []int{0, 1, 2} {
		movers := movers
		b.Run(fmt.Sprintf("movers=%d", movers), func(b *testing.B) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for m := 0; m < movers; m++ {
				wg.Add(1)
				go func(m int) {
					defer wg.Done()
					i := m
					for {
						select {
						case <-stop:
							return
						default:
							id := int32(i % n)
							p := be.ds.Pts[id] // construction-time coords; stable under moves
							if err := be.eng.ApplyUpdates([]core.Update{{ID: id, To: spatial.Point{X: 1 - p.X, Y: 1 - p.Y}}}); err != nil {
								return
							}
							i += movers
						}
					}
				}(m)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := be.users[i%len(be.users)]
				if _, err := be.eng.Query(core.AIS, q, prm); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkShardedQuery measures the partitioned engine's query path at
// several shard counts: one search over all S snapshots, whose social work is
// S=1's, so what S adds is the spatial side's extra top cells and snapshot
// loads. S=1 is the baseline the overhead is read against.
func BenchmarkShardedQuery(b *testing.B) {
	ds, err := gen.GowallaPreset.Dataset(benchSizes["gowalla"], benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	users := exp.QueryUsers(ds, benchQueryCnt, benchSeed)
	prm := core.Params{K: exp.DefaultK, Alpha: exp.DefaultAlpha}
	for _, S := range []int{1, 2, 4} {
		se, err := shard.New(ds, S, exp.EngineOptions(exp.DefaultS, benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("S=%d", S), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := users[i%len(users)]
				if _, err := se.Query(core.AIS, q, prm); err != nil {
					b.Fatal(err)
				}
			}
		})
		se.Close()
	}
}

// BenchmarkIndexBuild measures full engine construction (landmark tables,
// grid, social summaries).
func BenchmarkIndexBuild(b *testing.B) {
	ds, err := gen.GowallaPreset.Dataset(benchSizes["gowalla"], benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEngine(ds, exp.EngineOptions(exp.DefaultS, benchSeed)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocationUpdate measures §5.1 index maintenance under movement on
// the synchronous path: every move is its own published epoch, so this is
// the worst case for the copy-on-write design (the whole COW cost lands on
// one move). BenchmarkLocationUpdateBatched shows the amortized cost a
// batched write (a 256-move request) pays.
func BenchmarkLocationUpdate(b *testing.B) {
	be := getEngine(b, "twitter", nil) // all users located
	pts := be.ds.Pts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int32(i % be.ds.NumUsers())
		p := pts[id]
		if err := be.eng.ApplyUpdates([]core.Update{{ID: id, To: spatial.Point{X: 1 - p.X, Y: 1 - p.Y}}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocationUpdateBatched measures the same maintenance through
// ApplyUpdates in batches of 256: one COW epoch per batch, amortized
// across its moves (reported per move).
func BenchmarkLocationUpdateBatched(b *testing.B) {
	be := getEngine(b, "twitter", nil)
	pts := be.ds.Pts
	n := be.ds.NumUsers()
	const batch = 256
	ops := make([]core.Update, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			id := int32((i*batch + j) % n)
			p := pts[id]
			ops[j] = core.Update{ID: id, To: spatial.Point{X: 1 - p.X, Y: 1 - p.Y}}
		}
		if err := be.eng.ApplyUpdates(ops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/move")
}

// BenchmarkEdgeUpdateSingle measures one edge upsert+publish per epoch —
// graph overlay row rebuild, incremental landmark repair (Dijkstra-order
// re-relaxation), affected-cell summary recompute and snapshot publication
// all land on a single op.
func BenchmarkEdgeUpdateSingle(b *testing.B) {
	// A seed of its own gives the bench its own cached engine, so its edge
	// churn never reaches the engines other benchmarks share.
	be := getEngine(b, "twitter", func(o *core.Options) { o.Seed = 2 })
	n := int32(be.ds.NumUsers())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int32(i) % n
		v := (u + 1 + int32(i)%97) % n
		if u == v {
			continue
		}
		var err error
		if i%2 == 0 {
			err = be.eng.AddFriend(u, v, 0.1)
		} else {
			err = be.eng.ApplyUpdates([]core.Update{{Kind: core.OpEdgeRemove, U: u, V: v}})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEdgeUpdateBatched measures the same maintenance through
// ApplyUpdates in batches of 256: one epoch per batch (reported per edge
// op).
func BenchmarkEdgeUpdateBatched(b *testing.B) {
	be := getEngine(b, "twitter", func(o *core.Options) {
		o.Seed = 1 // distinct cache key from the single-op bench
	})
	n := int32(be.ds.NumUsers())
	const batch = 256
	ops := make([]core.Update, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = ops[:0]
		for j := 0; len(ops) < batch; j++ {
			u := int32(i*batch+j) % n
			v := (u + 1 + int32(j)%89) % n
			if u == v {
				continue
			}
			if j%2 == 0 {
				ops = append(ops, core.Update{Kind: core.OpEdgeUpsert, U: u, V: v, W: 0.1})
			} else {
				ops = append(ops, core.Update{Kind: core.OpEdgeRemove, U: u, V: v})
			}
		}
		if err := be.eng.ApplyUpdates(ops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/edgeop")
}

// BenchmarkQueriesUnderEdgeChurn measures AIS latency while a background
// goroutine churns friendships one synchronous write at a time — the query path
// must stay lock-free regardless of social write pressure.
func BenchmarkQueriesUnderEdgeChurn(b *testing.B) {
	be := getEngine(b, "gowalla", func(o *core.Options) { o.Seed = 2 })
	n := int32(be.ds.NumUsers())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			u := int32(i) % n
			v := (u + 1 + int32(i)%83) % n
			if u != v {
				if i%3 == 0 {
					_ = be.eng.ApplyUpdates([]core.Update{{Kind: core.OpEdgeRemove, U: u, V: v}})
				} else {
					_ = be.eng.ApplyUpdates([]core.Update{{Kind: core.OpEdgeUpsert, U: u, V: v, W: 0.1}})
				}
			}
			i++
		}
	}()
	prm := core.Params{K: 10, Alpha: 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := be.users[i%len(be.users)]
		if _, err := be.eng.Query(core.AIS, q, prm); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
