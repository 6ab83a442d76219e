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
	"ssrq/internal/spatial"
)

// churnMode selects how queries and moves synchronize in one churn cell.
type churnMode int

const (
	// churnSnapshot is the engine's native path: lock-free queries against
	// published epochs, moves batched through the asynchronous queue.
	churnSnapshot churnMode = iota
	// churnRWMutex emulates the pre-epoch design at the workload level: an
	// external RWMutex serializes queries (read side) against synchronous
	// per-move epochs (write side), so every query blocks every move for the
	// query's full duration — the collapse this refactor exists to fix.
	churnRWMutex
)

func (m churnMode) String() string {
	if m == churnSnapshot {
		return "snapshot"
	}
	return "rwmutex"
}

// RunChurn measures query latency under sustained location churn: for each
// mover count, background goroutines relocate users (optionally throttled to
// s.ChurnRate moves/sec each) while a querier runs the AIS workload, and the
// experiment reports the latency percentiles for both the snapshot engine
// and the RWMutex baseline. Every cell ends with a brute-force equivalence
// probe on the post-churn index, so the baseline rows double as a
// correctness check of the concurrent maintenance. The engine is the one the
// server runs — the routed engine, here with one shard — so the async cells
// go through its one update queue.
func (s *Suite) RunChurn() error {
	ds, err := s.Dataset("twitter") // all users located
	if err != nil {
		return err
	}
	e, err := shard.New(ds, 1, EngineOptions(DefaultS, s.Seed))
	if err != nil {
		return err
	}
	defer e.Close()
	n := ds.NumUsers()
	// Movers touch only the upper half of the ID space; queries draw from
	// the lower half, so a query user never loses its location mid-cell.
	var queryable, movable []graph.VertexID
	for _, u := range QueryUsers(ds, n, s.Seed) {
		if int(u) < n/2 {
			queryable = append(queryable, u)
		} else {
			movable = append(movable, u)
		}
	}
	if len(queryable) == 0 || len(movable) == 0 {
		return fmt.Errorf("exp: churn: degenerate located split")
	}
	queries := s.Scale.NumQueries * 4
	moverCounts := s.ChurnMovers
	if len(moverCounts) == 0 {
		moverCounts = []int{0, 1, 4}
	}
	rateLabel := "max"
	if s.ChurnRate > 0 {
		rateLabel = fmt.Sprintf("%.0f/s per mover", s.ChurnRate)
	}

	tbl := &Table{
		Title: fmt.Sprintf("Query latency under churn — AIS, k=%d, α=%.1f, %d queries/cell, mover rate %s",
			DefaultK, DefaultAlpha, queries, rateLabel),
		Columns: []string{"engine", "movers", "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean (ms)", "queries/s", "moves applied", "epochs"},
	}
	bounds := ds.Bounds()
	for _, mode := range []churnMode{churnRWMutex, churnSnapshot} {
		for _, movers := range moverCounts {
			cell, err := s.runChurnCell(e, mode, queryable, movable, bounds, queries, movers)
			if err != nil {
				return err
			}
			tbl.AddRow(mode.String(), fmt.Sprint(movers),
				ms(cell.lat.P50), ms(cell.lat.P95), ms(cell.lat.P99), ms(cell.lat.Mean),
				fmt.Sprintf("%.0f", cell.qps), fmt.Sprint(cell.moves), fmt.Sprint(cell.epochs))
			s.record(Measurement{
				Dataset: ds.Name, Algo: core.AIS, X: float64(movers),
				Runtime: cell.lat.P95, Queries: cell.lat.N,
			})
		}
	}
	tbl.Fprint(s.Out)

	// Post-churn integrity: the mutated index must still agree exactly with
	// brute force (the snapshot machinery never corrupted membership or
	// summaries).
	rng := rand.New(rand.NewSource(s.Seed))
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
			return fmt.Errorf("exp: churn: post-churn AIS/brute size mismatch for user %d", q)
		}
		for i := range got.Entries {
			if diff := got.Entries[i].F - want.Entries[i].F; diff > 1e-9 || diff < -1e-9 {
				return fmt.Errorf("exp: churn: post-churn AIS/brute rank %d mismatch for user %d", i, q)
			}
		}
	}
	fmt.Fprintln(s.Out, "post-churn brute-force equivalence: ok")
	return nil
}

// churnCell is one measured (mode, movers) combination.
type churnCell struct {
	lat    latencySummary
	qps    float64
	moves  int64
	epochs uint64
}

// runChurnCell runs one cell: `movers` goroutines churning locations while
// one querier answers `queries` AIS queries, timed individually.
func (s *Suite) runChurnCell(e *shard.Engine, mode churnMode, queryable, movable []graph.VertexID,
	bounds spatial.Rect, queries, movers int) (churnCell, error) {
	var mu sync.RWMutex // used only by churnRWMutex
	startEpoch := e.UpdateStats().Epoch
	var movesDone atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var moveErr atomic.Value

	for m := 0; m < movers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.Seed + int64(100+m)))
			var throttle *time.Ticker
			if s.ChurnRate > 0 {
				throttle = time.NewTicker(time.Duration(float64(time.Second) / s.ChurnRate))
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
				id := int32(movable[rng.Intn(len(movable))])
				to := spatial.Point{
					X: bounds.MinX + rng.Float64()*bounds.Width(),
					Y: bounds.MinY + rng.Float64()*bounds.Height(),
				}
				var err error
				if mode == churnRWMutex {
					mu.Lock()
					err = e.ApplyUpdates([]core.Update{{ID: id, To: to}})
					mu.Unlock()
				} else {
					err = e.Enqueue(core.Update{ID: id, To: to})
				}
				if err != nil {
					moveErr.Store(err)
					return
				}
				movesDone.Add(1)
			}
		}(m)
	}

	prm := core.Params{K: DefaultK, Alpha: DefaultAlpha}
	lat := make([]time.Duration, 0, queries)
	qrng := rand.New(rand.NewSource(s.Seed + 7))
	wall := time.Now()
	for i := 0; i < queries; i++ {
		q := queryable[qrng.Intn(len(queryable))]
		start := time.Now()
		if mode == churnRWMutex {
			mu.RLock()
		}
		_, err := e.Query(core.AIS, q, prm)
		if mode == churnRWMutex {
			mu.RUnlock()
		}
		if err != nil {
			close(stop)
			wg.Wait()
			return churnCell{}, fmt.Errorf("exp: churn query: %w", err)
		}
		lat = append(lat, time.Since(start))
	}
	elapsed := time.Since(wall)
	close(stop)
	wg.Wait()
	if err, ok := moveErr.Load().(error); ok && err != nil {
		return churnCell{}, fmt.Errorf("exp: churn mover: %w", err)
	}
	e.Flush() // drain the async queue so the next cell starts quiescent
	return churnCell{
		lat:    summarizeLatencies(lat),
		qps:    float64(queries) / elapsed.Seconds(),
		moves:  movesDone.Load(),
		epochs: e.UpdateStats().Epoch - startEpoch,
	}, nil
}
