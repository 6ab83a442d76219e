package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ssrq/internal/core"
	"ssrq/internal/graph"
	"ssrq/internal/shard"
)

// RunSocialChurn measures query latency under sustained *social* churn: for
// each edge-update rate, a background churner adds/removes/reweights
// friendships through the asynchronous queue while a querier runs the AIS
// workload against lock-free snapshots. Each cell reports latency
// percentiles plus the social maintenance counters (epochs, incremental
// landmark repairs). The experiment ends with a post-churn correctness
// audit: AIS against the brute-force oracle on the mutated graph, every
// landmark table against a fresh Dijkstra on an independently rebuilt graph,
// and sampled landmark-bound admissibility checks (LowerBound ≤ true
// distance ≤ UpperBound) against exact distances on that graph. Like
// RunChurn it drives the server's engine — routed, one shard — and so its
// one update queue.
func (s *Suite) RunSocialChurn() error {
	ds, err := s.Dataset("gowalla")
	if err != nil {
		return err
	}
	e, err := shard.New(ds, 1, EngineOptions(DefaultS, s.Seed))
	if err != nil {
		return err
	}
	defer e.Close()
	n := ds.NumUsers()
	queryable := QueryUsers(ds, s.Scale.NumQueries*2, s.Seed)
	if len(queryable) == 0 {
		return fmt.Errorf("exp: socialchurn: no located query users")
	}
	queries := s.Scale.NumQueries * 4
	rates := s.EdgeRates
	if len(rates) == 0 {
		rates = []float64{0, 200, 2000}
	}

	// Sample the weight range of the construction graph so churned edges
	// stay in-distribution.
	wLo, wHi := edgeWeightRange(ds.G)

	tbl := &Table{
		Title: fmt.Sprintf("Query latency under social churn — AIS, k=%d, α=%.1f, %d queries/cell",
			DefaultK, DefaultAlpha, queries),
		Columns: []string{"edge rate/s", "p50 (ms)", "p95 (ms)", "p99 (ms)", "queries/s",
			"edge ops", "social epochs", "lm repairs"},
	}
	for _, rate := range rates {
		cell, err := s.runSocialChurnCell(e, queryable, n, wLo, wHi, queries, rate)
		if err != nil {
			return err
		}
		rateLabel := "off"
		if rate > 0 {
			rateLabel = fmt.Sprintf("%.0f", rate)
		} else if rate < 0 {
			rateLabel = "max"
		}
		tbl.AddRow(rateLabel,
			ms(cell.lat.P50), ms(cell.lat.P95), ms(cell.lat.P99),
			fmt.Sprintf("%.0f", cell.qps),
			fmt.Sprint(cell.edgeOps), fmt.Sprint(cell.socialEpochs),
			fmt.Sprint(cell.repairs))
		s.record(Measurement{
			Dataset: ds.Name, Algo: core.AIS, X: rate,
			Runtime: cell.lat.P95, Queries: cell.lat.N,
		})
	}
	tbl.Fprint(s.Out)

	// Post-churn audit, once Flush has drained the update queue. Every
	// published landmark table must already be exact on an independently
	// rebuilt graph — catching any drift between the overlay's merged view
	// and the true mutated topology, or a table that left its batch
	// partly repaired.
	e.Flush()
	sn := e.Substrate().Snapshot()
	oracle := rebuildGraph(sn.Graph())
	lm := sn.Landmarks()
	for j, lmv := range lm.Vertices() {
		for v, want := range oracle.DistancesFrom(lmv) {
			if got := lm.Dist(j, graph.VertexID(v)); got != want {
				return fmt.Errorf("exp: socialchurn: landmark %d distance to %d is %v, a fresh Dijkstra gives %v", j, v, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(s.Seed + 99))
	prm := core.Params{K: DefaultK, Alpha: DefaultAlpha}
	for probe := 0; probe < 3; probe++ {
		q := queryable[rng.Intn(len(queryable))]
		want, err := e.Query(core.BruteForce, q, prm)
		if err != nil {
			return err
		}
		got, err := e.Query(core.AIS, q, prm)
		if err != nil {
			return err
		}
		if len(got.Entries) != len(want.Entries) {
			return fmt.Errorf("exp: socialchurn: post-churn AIS/brute size mismatch for user %d", q)
		}
		for i := range got.Entries {
			if diff := got.Entries[i].F - want.Entries[i].F; diff > 1e-9 || diff < -1e-9 {
				return fmt.Errorf("exp: socialchurn: post-churn AIS/brute rank %d mismatch for user %d", i, q)
			}
		}
		dist := oracle.DistancesFrom(q)
		for v := 0; v < n; v += 1 + n/64 {
			lo := lm.LowerBound(q, graph.VertexID(v))
			hi := lm.UpperBound(q, graph.VertexID(v))
			if lo > dist[v]+1e-9 || hi < dist[v]-1e-9 {
				return fmt.Errorf("exp: socialchurn: inadmissible landmark bound for (%d,%d): lo=%v true=%v hi=%v", q, v, lo, dist[v], hi)
			}
		}
	}
	fmt.Fprintf(s.Out, "post-churn brute-force equivalence + landmark admissibility: ok "+
		"(%d landmark tables exact, %d recomputed at batch end, social epoch %d)\n",
		lm.M(), e.SocialStats().LandmarkRebuilds, sn.Epoch())
	return nil
}

// socialChurnCell is one measured edge-rate cell.
type socialChurnCell struct {
	lat          latencySummary
	qps          float64
	edgeOps      int64
	socialEpochs uint64
	repairs      int64
}

// runSocialChurnCell runs one cell: a churner goroutine mutating edges at
// `rate` ops/sec (0 = none, negative = unthrottled) while one querier
// answers `queries` AIS queries, timed individually.
func (s *Suite) runSocialChurnCell(e *shard.Engine, queryable []graph.VertexID,
	n int, wLo, wHi float64, queries int, rate float64) (socialChurnCell, error) {
	startSocial := e.UpdateStats().SocialEpoch
	startRepairs := e.SocialStats().LandmarkRepairs
	var opsDone atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churnErr atomic.Value

	if rate != 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.Seed + 4242))
			var throttle *time.Ticker
			if rate > 0 {
				throttle = time.NewTicker(time.Duration(float64(time.Second) / rate))
				defer throttle.Stop()
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if throttle != nil {
					select {
					case <-stop:
						return
					case <-throttle.C:
					}
				}
				var err error
				if rng.Intn(5) < 3 {
					u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
					if u == v {
						continue
					}
					err = e.Enqueue(core.Update{Kind: core.OpEdgeUpsert, U: u, V: v, W: wLo + rng.Float64()*(wHi-wLo)})
				} else {
					// Remove a random incident edge from the latest snapshot.
					u := graph.VertexID(rng.Int31n(int32(n)))
					nbrs, _ := e.LiveSocialGraph().Neighbors(u)
					if len(nbrs) == 0 {
						continue
					}
					err = e.Enqueue(core.Update{Kind: core.OpEdgeRemove, U: u, V: nbrs[rng.Intn(len(nbrs))]})
				}
				if err != nil {
					churnErr.Store(err)
					return
				}
				opsDone.Add(1)
			}
		}()
	}

	if rate != 0 {
		// Guarantee real overlap: very short cells (micro scales on few
		// cores) can otherwise finish before the churner is ever scheduled.
		deadline := time.Now().Add(2 * time.Second)
		for opsDone.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
	}
	prm := core.Params{K: DefaultK, Alpha: DefaultAlpha}
	lat := make([]time.Duration, 0, queries)
	var aisTime time.Duration
	qrng := rand.New(rand.NewSource(s.Seed + 17))
	// Run at least `queries` queries, continuing (up to a bound) until the
	// churner has produced a meaningful number of ops mid-flight.
	minOps := int64(queries)
	if rate == 0 {
		minOps = 0
	}
	for i := 0; i < queries || (opsDone.Load() < minOps && i < queries*50); i++ {
		q := queryable[qrng.Intn(len(queryable))]
		start := time.Now()
		_, err := e.Query(core.AIS, q, prm)
		if err != nil {
			close(stop)
			wg.Wait()
			return socialChurnCell{}, fmt.Errorf("exp: socialchurn query: %w", err)
		}
		d := time.Since(start)
		lat = append(lat, d)
		aisTime += d
	}
	queries = len(lat)
	close(stop)
	wg.Wait()
	if err, ok := churnErr.Load().(error); ok && err != nil {
		return socialChurnCell{}, fmt.Errorf("exp: socialchurn churner: %w", err)
	}
	e.Flush() // drain so the next cell starts quiescent
	st := e.SocialStats()
	return socialChurnCell{
		lat:          summarizeLatencies(lat),
		qps:          float64(queries) / aisTime.Seconds(),
		edgeOps:      opsDone.Load(),
		socialEpochs: e.UpdateStats().SocialEpoch - startSocial,
		repairs:      st.LandmarkRepairs - startRepairs,
	}, nil
}

// edgeWeightRange scans the graph for its min/max edge weight.
func edgeWeightRange(g *graph.Graph) (lo, hi float64) {
	lo, hi = 1, 1
	first := true
	for v := 0; v < g.NumVertices(); v++ {
		_, ws := g.Neighbors(graph.VertexID(v))
		for _, w := range ws {
			if first {
				lo, hi = w, w
				first = false
				continue
			}
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
	}
	return lo, hi
}

// rebuildGraph reconstructs an independent CSR graph from a snapshot
// graph's edges — the oracle substrate for post-churn equivalence.
func rebuildGraph(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		nbrs, ws := g.Neighbors(graph.VertexID(v))
		for i, u := range nbrs {
			if u > graph.VertexID(v) {
				_ = b.AddEdge(graph.VertexID(v), u, ws[i])
			}
		}
	}
	return b.MustBuild()
}
