package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ssrq/internal/core"
	"ssrq/internal/graph"
	"ssrq/internal/shard"
	"ssrq/internal/spatial"
)

// RunShard measures the spatially-partitioned engine: for every shard count
// in s.ShardCounts (default 1, 2, 4, 8) it builds a sharded engine over the
// geo-clustered gowalla substitute, measures AIS query latency percentiles
// and social pops per query, then drives a location-churn burst through the
// engine's update queue and reports epoch throughput.
//
// The cell is self-checking, not just self-reporting: every shard count must
// do exactly the first cell's social work on the same queries (one search
// over S snapshots runs the social side once, whatever S is), and after the
// churn burst every engine must agree exactly with its own brute-force oracle
// AND with the first cell's results (the same ops were replayed into every
// cell).
func (s *Suite) RunShard() error {
	ds, err := s.Dataset("gowalla")
	if err != nil {
		return err
	}
	counts := s.ShardCounts
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	users := QueryUsers(ds, s.Scale.NumQueries, s.Seed)
	if len(users) == 0 {
		return fmt.Errorf("exp: shard: no located query users")
	}
	prm := core.Params{K: DefaultK, Alpha: DefaultAlpha}
	moves := s.Scale.NumQueries * 40
	bounds := ds.Bounds()

	tbl := &Table{
		Title: fmt.Sprintf("Sharded engine — AIS, k=%d, α=%.1f, %d queries, %d churn moves per cell",
			prm.K, prm.Alpha, len(users), moves),
		Columns: []string{"shards", "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean (ms)",
			"social pops/q", "moves/s", "epochs", "sh queried", "sh empty"},
	}

	// reference holds the first cell's post-churn results the other cells
	// must match, refPops its social pops per query.
	var reference []*core.Result
	var refQueries []graph.VertexID
	refPops := -1.0
	for _, S := range counts {
		eng, err := shard.New(ds, S, EngineOptions(DefaultS, s.Seed))
		if err != nil {
			return fmt.Errorf("exp: shard: S=%d: %w", S, err)
		}

		// Query latency and social work over the clustered workload.
		lat := make([]time.Duration, 0, len(users))
		socialPops := 0
		for _, q := range users {
			start := time.Now()
			res, err := eng.Query(core.AIS, q, prm)
			if err != nil {
				eng.Close()
				return fmt.Errorf("exp: shard: S=%d query %d: %w", S, q, err)
			}
			lat = append(lat, time.Since(start))
			socialPops += res.Stats.SocialPops
		}
		popsPerQ := float64(socialPops) / float64(len(users))
		if refPops < 0 {
			refPops = popsPerQ
		} else if popsPerQ != refPops {
			eng.Close()
			return fmt.Errorf("exp: shard: S=%d did %.2f social pops per query, S=%d %.2f on the same queries — the social search is no longer done once",
				S, popsPerQ, counts[0], refPops)
		}

		// Churn burst through the update queue: identical ops per cell
		// (the rng is reseeded), so every cell converges to the same world.
		rng := rand.New(rand.NewSource(s.Seed + 271))
		epoch0 := eng.UpdateStats().Epoch
		wall := time.Now()
		for i := 0; i < moves; i++ {
			id := int32(users[rng.Intn(len(users))])
			to := spatial.Point{
				X: bounds.MinX + rng.Float64()*bounds.Width(),
				Y: bounds.MinY + rng.Float64()*bounds.Height(),
			}
			if err := eng.Enqueue(core.Update{ID: id, To: to}); err != nil {
				eng.Close()
				return fmt.Errorf("exp: shard: S=%d move: %w", S, err)
			}
		}
		eng.Flush()
		churnSecs := time.Since(wall).Seconds()
		epochs := eng.UpdateStats().Epoch - epoch0

		// Post-churn equivalence: engine vs its own brute oracle, and vs the
		// S=1 reference (every cell replayed the same ops).
		probeRng := rand.New(rand.NewSource(s.Seed + 13))
		var probes []*core.Result
		var probeQs []graph.VertexID
		for probe := 0; probe < 4; probe++ {
			q := users[probeRng.Intn(len(users))]
			want, err := eng.Query(core.BruteForce, q, prm)
			if err != nil {
				eng.Close()
				return err
			}
			got, err := eng.Query(core.AIS, q, prm)
			if err != nil {
				eng.Close()
				return err
			}
			if err := sameResult(got, want); err != nil {
				eng.Close()
				return fmt.Errorf("exp: shard: S=%d AIS vs brute (q=%d): %w", S, q, err)
			}
			probes = append(probes, got)
			probeQs = append(probeQs, q)
		}
		if reference == nil {
			reference, refQueries = probes, probeQs
		} else {
			for i, got := range probes {
				if err := sameResult(got, reference[i]); err != nil {
					eng.Close()
					return fmt.Errorf("exp: shard: S=%d vs S=%d (q=%d): %w", S, counts[0], refQueries[i], err)
				}
			}
		}

		fs := eng.FanoutStats()
		sum := summarizeLatencies(lat)
		tbl.AddRow(fmt.Sprint(S), ms(sum.P50), ms(sum.P95), ms(sum.P99), ms(sum.Mean),
			fmt.Sprintf("%.1f", popsPerQ), fmt.Sprintf("%.0f", float64(moves)/churnSecs), fmt.Sprint(epochs),
			fmt.Sprint(fs.ShardsQueried), fmt.Sprint(fs.ShardsEmpty))
		s.record(Measurement{
			Dataset: ds.Name, Algo: core.AIS, X: float64(S),
			Runtime: sum.P95, Queries: sum.N,
			P50: sum.P50, P95: sum.P95, P99: sum.P99,
			Extra: map[string]float64{
				"moves_per_sec":     float64(moves) / churnSecs,
				"epochs":            float64(epochs),
				"social_pops_per_q": popsPerQ,
				"shards_queried":    float64(fs.ShardsQueried),
				"shards_empty":      float64(fs.ShardsEmpty),
			},
		})
		eng.Close()
	}
	tbl.Fprint(s.Out)
	fmt.Fprintln(s.Out, "social pops per query equal across S; post-churn equivalence (per-cell brute oracle + cross-S): ok")
	return nil
}

// sameResult asserts exact agreement of two results: same length, same IDs
// in the same order, same scores to float tolerance.
func sameResult(got, want *core.Result) error {
	if len(got.Entries) != len(want.Entries) {
		return fmt.Errorf("%d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for i := range got.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g.ID != w.ID || math.Abs(g.F-w.F) > 1e-12 {
			return fmt.Errorf("rank %d: (id=%d f=%v), want (id=%d f=%v)", i, g.ID, g.F, w.ID, w.F)
		}
	}
	return nil
}
