package exp

import (
	"fmt"
	"math/rand"
	"time"

	"ssrq/internal/core"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/shard"
)

// RunShardSkew measures the elastic resharding layer under a skewed-migration
// workload: a distance-dependent hotspot drift (gen.Migration) concentrates
// the population into one corner of the world, which unbalances any frozen
// Z-order cut, and the engine's automatic rebalancer must re-cut the curve
// online while queries keep serving. For every shard count (default 16) the
// cell reports AIS latency percentiles before / during / after the drift,
// the per-shard occupancy imbalance (max/mean located count over the shards)
// at each stage and at its observed peak, and the rebalance counters.
//
// The cell fails, rather than just reports, when the elastic layer regresses:
// no rebalance triggered, the imbalance did not recover below its peak, any
// query errored mid-drain, or a post-phase AIS answer diverged from the
// engine's own brute-force oracle (exact IDs, not just scores).
func (s *Suite) RunShardSkew() error {
	ds, err := s.Dataset("gowalla")
	if err != nil {
		return err
	}
	counts := s.ShardCounts
	if len(counts) == 0 {
		counts = []int{16}
	}
	users := QueryUsers(ds, s.Scale.NumQueries, s.Seed)
	if len(users) == 0 {
		return fmt.Errorf("exp: shard-skew: no located query users")
	}
	prm := core.Params{K: DefaultK, Alpha: DefaultAlpha}
	// The whole located population drifts — a handful of movers cannot
	// unbalance a cut no matter how far they travel.
	movers := QueryUsers(ds, ds.NumUsers(), s.Seed+1)
	moves := 6 * len(movers)
	if min := s.Scale.NumQueries * 120; moves < min {
		moves = min
	}

	tbl := &Table{
		Title: fmt.Sprintf("Elastic resharding under skewed migration — AIS, k=%d, α=%.1f, %d queries/phase, %d hotspot moves",
			prm.K, prm.Alpha, len(users), moves),
		Columns: []string{"shards", "phase", "p50 (ms)", "p95 (ms)", "p99 (ms)",
			"imbalance", "rebalances", "cells moved", "users moved"},
	}

	for _, S := range counts {
		eng, err := shard.New(ds, S, EngineOptions(DefaultS, s.Seed))
		if err != nil {
			return fmt.Errorf("exp: shard-skew: S=%d: %w", S, err)
		}
		if err := s.runSkewCell(eng, S, users, movers, prm, moves, tbl); err != nil {
			eng.Close()
			return err
		}
		eng.Close()
	}
	tbl.Fprint(s.Out)
	fmt.Fprintln(s.Out, "per-phase brute-oracle equivalence + zero query errors during drain: ok")
	return nil
}

// runSkewCell drives one shard count through the three phases.
func (s *Suite) runSkewCell(eng *shard.Engine, S int, users, movers []graph.VertexID, prm core.Params, moves int, tbl *Table) error {
	rng := rand.New(rand.NewSource(s.Seed + 977))
	// The wide jitter keeps the hotspot mass spread over a handful of leaf
	// cells rather than collapsing into one: a single overloaded cell is the
	// one skew no curve re-cut can repair, and is not the regime the elastic
	// layer targets.
	mig, err := gen.NewMigration(eng.Dataset().Bounds(), gen.MigrationConfig{Jitter: 0.06}, rng)
	if err != nil {
		return fmt.Errorf("exp: shard-skew: %w", err)
	}

	// measure runs the query workload and asserts brute-oracle agreement on a
	// probe subset; the engine is flushed first so both sides answer on the
	// same settled world.
	measure := func(phase string) (latencySummary, error) {
		eng.Flush()
		lat := make([]time.Duration, 0, len(users))
		for _, q := range users {
			start := time.Now()
			if _, err := eng.Query(core.AIS, q, prm); err != nil {
				return latencySummary{}, fmt.Errorf("exp: shard-skew: S=%d %s query %d: %w", S, phase, q, err)
			}
			lat = append(lat, time.Since(start))
		}
		for probe := 0; probe < 4 && probe < len(users); probe++ {
			q := users[probe]
			want, err := eng.Query(core.BruteForce, q, prm)
			if err != nil {
				return latencySummary{}, err
			}
			got, err := eng.Query(core.AIS, q, prm)
			if err != nil {
				return latencySummary{}, err
			}
			if err := sameResult(got, want); err != nil {
				return latencySummary{}, fmt.Errorf("exp: shard-skew: S=%d %s AIS vs brute (q=%d): %w", S, phase, q, err)
			}
		}
		return summarizeLatencies(lat), nil
	}
	row := func(phase string, sum latencySummary, imb float64, rs shard.RebalanceStats) {
		tbl.AddRow(fmt.Sprint(S), phase, ms(sum.P50), ms(sum.P95), ms(sum.P99),
			f2(imb), fmt.Sprint(rs.Rebalances), fmt.Sprint(rs.CellsMoved), fmt.Sprint(rs.UsersMoved))
	}

	// Phase 1 — before: the construction-time cut is balanced by design.
	before, err := measure("before")
	if err != nil {
		return err
	}
	imbBefore := eng.Imbalance()
	row("before", before, imbBefore, eng.RebalanceStats())

	// Phase 2 — during: interleave the hotspot drift with query traffic,
	// sampling the occupancy imbalance between chunks to catch its peak
	// (automatic re-cuts keep pulling it back down mid-stream).
	imbPeak := imbBefore
	during := make([]time.Duration, 0, moves/64)
	for sent := 0; sent < moves; {
		chunk := 256
		if rem := moves - sent; rem < chunk {
			chunk = rem
		}
		for i := 0; i < chunk; i++ {
			id := int32(movers[rng.Intn(len(movers))])
			from, ok := eng.UserLocation(id)
			if !ok {
				continue
			}
			if err := eng.Enqueue(core.Update{ID: id, To: mig.Next(from)}); err != nil {
				return fmt.Errorf("exp: shard-skew: S=%d move: %w", S, err)
			}
		}
		sent += chunk
		for i := 0; i < 4; i++ {
			q := users[rng.Intn(len(users))]
			start := time.Now()
			if _, err := eng.Query(core.AIS, q, prm); err != nil {
				return fmt.Errorf("exp: shard-skew: S=%d query during drain: %w", S, err)
			}
			during = append(during, time.Since(start))
		}
		// Flush per chunk: the automatic trigger samples *applied* occupancy,
		// so without the barrier a fast enqueue loop (or a slow build, e.g.
		// under the race detector) would hide the skew until the drift is
		// already degenerate — and the peak sampling below would lie.
		eng.Flush()
		if imb := eng.Imbalance(); imb > imbPeak {
			imbPeak = imb
		}
	}
	// The automatic trigger samples *applied* occupancy every few hundred
	// routed ops, so when the enqueue loop outruns the update queue (e.g.
	// under the race detector) the skew only becomes observable after the
	// final flush — with no further traffic to sample it. Keep the already-
	// skewed population drifting in flushed rounds until the trigger fires;
	// the rounds also keep the queriers' "during" sample honest, since this
	// is exactly the window where the drain overlaps serving.
	for round := 0; round < 40 && eng.RebalanceStats().Rebalances == 0 && !eng.RebalanceInFlight(); round++ {
		for i := 0; i < 600; i++ {
			id := int32(movers[rng.Intn(len(movers))])
			from, ok := eng.UserLocation(id)
			if !ok {
				continue
			}
			if err := eng.Enqueue(core.Update{ID: id, To: mig.Next(from)}); err != nil {
				return fmt.Errorf("exp: shard-skew: S=%d move: %w", S, err)
			}
		}
		for i := 0; i < 4; i++ {
			q := users[rng.Intn(len(users))]
			start := time.Now()
			if _, err := eng.Query(core.AIS, q, prm); err != nil {
				return fmt.Errorf("exp: shard-skew: S=%d query during drain: %w", S, err)
			}
			during = append(during, time.Since(start))
		}
		eng.Flush()
		if imb := eng.Imbalance(); imb > imbPeak {
			imbPeak = imb
		}
	}
	row("during", summarizeLatencies(during), imbPeak, eng.RebalanceStats())

	// Let the engine finish whatever drain is in flight and correct any
	// residual skew the sampled trigger has not caught up with yet: the
	// explicit call serializes behind an in-flight re-cut, so only after it
	// returns is the automatic-rebalance count settled. An auto-triggered
	// drain of thousands of cells can outlive the whole loop above (it runs
	// a migration batch at a time to stay off the query path), which is why
	// the count cannot be snapshotted any earlier. Subtracting the forced
	// call's own contribution leaves exactly the trigger-initiated re-cuts.
	forcedMoved := eng.Rebalance()
	autoRebalances := eng.RebalanceStats().Rebalances
	if forcedMoved > 0 {
		autoRebalances--
	}
	after, err := measure("after")
	if err != nil {
		return err
	}
	imbAfter := eng.Imbalance()
	rs := eng.RebalanceStats()
	row("after", after, imbAfter, rs)

	// Self-checks: the drift must have forced at least one automatic re-cut,
	// and the re-cuts must have recovered the balance.
	if autoRebalances == 0 {
		return fmt.Errorf("exp: shard-skew: S=%d: no automatic rebalance despite hotspot drift (peak imbalance %.2f, threshold %.2f)",
			S, imbPeak, rs.Threshold)
	}
	if imbPeak < rs.Threshold {
		return fmt.Errorf("exp: shard-skew: S=%d: drift never crossed the threshold (peak %.2f < %.2f) — workload too weak to prove anything",
			S, imbPeak, rs.Threshold)
	}
	if imbAfter >= imbPeak {
		return fmt.Errorf("exp: shard-skew: S=%d: imbalance did not recover (peak %.2f, after %.2f)", S, imbPeak, imbAfter)
	}

	s.record(Measurement{
		Dataset: eng.Dataset().Name, Algo: core.AIS, X: float64(S),
		Runtime: after.P95, Queries: before.N + len(during) + after.N,
		P50: after.P50, P95: after.P95, P99: after.P99,
		Extra: map[string]float64{
			"imbalance_before": imbBefore,
			"imbalance_peak":   imbPeak,
			"imbalance_after":  imbAfter,
			"rebalances":       float64(rs.Rebalances),
			"auto_rebalances":  float64(autoRebalances),
			"cells_moved":      float64(rs.CellsMoved),
			"users_moved":      float64(rs.UsersMoved),
			"during_p95_ms":    float64(summarizeLatencies(during).P95.Microseconds()) / 1000,
		},
	})
	return nil
}
