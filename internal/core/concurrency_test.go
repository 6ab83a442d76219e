package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// validTopK checks a result is a well-formed top-k set regardless of which
// snapshot of the moving world it was computed against: at most k entries,
// sorted, duplicate-free, query excluded, every f finite and consistent
// with its social/spatial decomposition. It returns an error rather than
// failing the test so it can run on worker goroutines.
func validTopK(res *Result, q graph.VertexID, k int, alpha float64) error {
	if len(res.Entries) > k {
		return fmt.Errorf("%d entries for k=%d", len(res.Entries), k)
	}
	seen := make(map[int32]bool, len(res.Entries))
	for i, e := range res.Entries {
		if e.ID == int32(q) {
			return fmt.Errorf("rank %d: query user in its own result", i)
		}
		if seen[e.ID] {
			return fmt.Errorf("rank %d: duplicate id %d", i, e.ID)
		}
		seen[e.ID] = true
		if math.IsInf(e.F, 0) || math.IsNaN(e.F) {
			return fmt.Errorf("rank %d: non-finite f %v", i, e.F)
		}
		if math.Abs(combine(alpha, e.P, e.D)-e.F) > 1e-9 {
			return fmt.Errorf("rank %d: f %v inconsistent with α·p+(1-α)·d", i, e.F)
		}
		if i > 0 && entryLess(e, res.Entries[i-1]) {
			return fmt.Errorf("rank %d: entries unsorted", i)
		}
	}
	return nil
}

// TestConcurrentQueryMoveStress hammers Query with every main algorithm
// while other goroutines relocate and unlocate users. Run under -race this
// is the synchronization proof; the assertions check every result is a
// valid top-k set mid-flight, and that after the dust settles the index
// still agrees exactly with brute force (i.e. concurrent maintenance never
// corrupted the summaries).
func TestConcurrentQueryMoveStress(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n = 200
	ds := mkDataset(t, rng, n, 0, false) // everyone located
	e := withCache(mkEngine(t, ds, Options{GridS: 5, GridLevels: 2}), 20)

	// Movers touch only the upper half of the ID space; queriers query only
	// the lower half, so a query user never loses its location mid-test.
	var movable []graph.VertexID
	var queryable []graph.VertexID
	for _, u := range locatedUsers(ds) {
		if int(u) >= n/2 {
			movable = append(movable, u)
		} else {
			queryable = append(queryable, u)
		}
	}
	if len(movable) == 0 || len(queryable) == 0 {
		t.Fatal("bad partition")
	}

	const (
		numQueriers   = 4
		numMovers     = 2
		queriesPerGor = 30
		movesPerGor   = 150
	)
	algos := []Algorithm{AIS, TSA, SFA, SPA, TSAQC, AISMinus, AISCache}
	var wg sync.WaitGroup
	var queriesDone, movesDone atomic.Int64
	errCh := make(chan error, numQueriers)

	for g := 0; g < numMovers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mrng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < movesPerGor; i++ {
				u := movable[mrng.Intn(len(movable))]
				switch mrng.Intn(4) {
				case 0:
					removeUserLocation(e, int32(u)) //errok random churn over valid users; cannot fail
				default:
					moveUser(e, int32(u), spatial.Point{X: mrng.Float64(), Y: mrng.Float64()}) //errok finite in-range coords; cannot fail
				}
				movesDone.Add(1)
			}
		}(g)
	}
	for g := 0; g < numQueriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < queriesPerGor; i++ {
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
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if queriesDone.Load() == 0 || movesDone.Load() == 0 {
		t.Fatalf("no overlap: %d queries, %d moves", queriesDone.Load(), movesDone.Load())
	}

	// Post-stress integrity: with the world quiescent again, every algorithm
	// must agree exactly with brute force on the mutated index.
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

// TestConcurrentBatchesAndMoves runs rounds of queries on several goroutines
// while movers mutate locations — the serving pattern of the HTTP layer,
// where each connection is one goroutine calling Query.
func TestConcurrentBatchesAndMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const n = 150
	ds := mkDataset(t, rng, n, 0, false)
	e := mkEngine(t, ds, Options{})
	users := locatedUsers(ds)
	prm := Params{K: 5, Alpha: 0.4}

	queries := make([]graph.VertexID, 24)
	for i := range queries {
		queries[i] = users[i%(len(users)/2)]
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mrng := rand.New(rand.NewSource(61))
		for {
			select {
			case <-stop:
				return
			default:
				u := users[len(users)/2+mrng.Intn(len(users)/2)]
				moveUser(e, int32(u), spatial.Point{X: mrng.Float64(), Y: mrng.Float64()}) //errok finite in-range coords; cannot fail
			}
		}
	}()
	const queriers = 3
	for round := 0; round < 6; round++ {
		errs := make([]error, len(queries))
		var qwg sync.WaitGroup
		for g := 0; g < queriers; g++ {
			qwg.Add(1)
			go func(g int) {
				defer qwg.Done()
				for i := g; i < len(queries); i += queriers {
					res, err := e.Query(AIS, queries[i], prm)
					if err == nil {
						err = validTopK(res, queries[i], prm.K, prm.Alpha)
					}
					errs[i] = err
				}
			}(g)
		}
		qwg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("slot %d: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
