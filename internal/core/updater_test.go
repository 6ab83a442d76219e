package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// TestSnapshotStressAsyncMovers is the -race synchronization proof for the
// lock-free query path: queriers call Query on their own goroutines with no
// lock whatsoever while concurrent movers push sustained churn through the
// engine. Every mid-flight result must be a valid top-k set against
// *some* published epoch, and after a Flush barrier the index must agree
// exactly with brute force — concurrent batched maintenance never corrupted
// membership or summaries.
func TestSnapshotStressAsyncMovers(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 220
	ds := mkDataset(t, rng, n, 0, false) // everyone located
	e := newAsync(withCache(mkEngine(t, ds, Options{GridS: 5, GridLevels: 2}), 20))
	defer e.Close()

	// Movers touch only the upper half of the ID space; queriers query only
	// the lower half, so a query user never loses its location mid-test.
	var movable, queryable []graph.VertexID
	for _, u := range locatedUsers(ds) {
		if int(u) >= n/2 {
			movable = append(movable, u)
		} else {
			queryable = append(queryable, u)
		}
	}

	const (
		numQueriers   = 4
		numMovers     = 3
		queriesPerGor = 25
		movesPerGor   = 400
	)
	algos := []Algorithm{AIS, TSA, SFA, SPA, AISMinus, AISCache}
	var wg sync.WaitGroup
	var queriesDone, movesDone atomic.Int64
	errCh := make(chan error, numQueriers+numMovers)

	for g := 0; g < numMovers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mrng := rand.New(rand.NewSource(int64(500 + g)))
			for i := 0; i < movesPerGor; i++ {
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
				movesDone.Add(1)
			}
		}(g)
	}
	for g := 0; g < numQueriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(600 + g)))
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

	// Barrier, then post-churn integrity: every algorithm must agree exactly
	// with brute force on the mutated index.
	e.Flush()
	if applied := e.applied.Load(); applied != movesDone.Load() {
		t.Fatalf("flush barrier incomplete: applied %d of %d", applied, movesDone.Load())
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

// TestFlushReadYourWrites: an async move followed by Flush must be visible
// to the next query and snapshot.
func TestFlushReadYourWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ds := mkDataset(t, rng, 80, 0, false)
	e := newAsync(mkEngine(t, ds, Options{}))
	defer e.Close()
	target := spatial.Point{X: 0.123, Y: 0.456}
	if err := moveUserAsync(e, 42, target); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	g := e.Snapshot().Grid()
	if !g.Located(42) || g.Point(42) != target {
		t.Fatalf("flushed move invisible: located=%v point=%v", g.Located(42), g.Point(42))
	}
	if err := removeUserLocationAsync(e, 42); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if e.Snapshot().Grid().Located(42) {
		t.Fatal("flushed removal invisible")
	}
}

// TestUpdateValidation: NaN/±Inf coordinates and out-of-range users are
// rejected on every update path before touching the index.
func TestUpdateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ds := mkDataset(t, rng, 40, 0, false)
	e := newAsync(mkEngine(t, ds, Options{}))
	defer e.Close()
	old := e.Snapshot()
	bad := []spatial.Point{
		{X: math.NaN(), Y: 0},
		{X: 0, Y: math.NaN()},
		{X: math.Inf(1), Y: 0},
		{X: 0, Y: math.Inf(-1)},
	}
	for _, p := range bad {
		if err := moveUser(e.Engine, 3, p); err == nil {
			t.Fatalf("MoveUser accepted %v", p)
		}
		if err := moveUserAsync(e, 3, p); err == nil {
			t.Fatalf("MoveUserAsync accepted %v", p)
		}
		if err := e.ApplyUpdates([]Update{{ID: 3, To: p}}); err == nil {
			t.Fatalf("ApplyUpdates accepted %v", p)
		}
	}
	if err := moveUser(e.Engine, -1, spatial.Point{}); err == nil {
		t.Fatal("negative user accepted")
	}
	if err := moveUser(e.Engine, 40, spatial.Point{}); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if err := removeUserLocation(e.Engine, 99); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
	e.Flush()
	if e.Snapshot() != old {
		t.Fatal("rejected updates still published an epoch")
	}
	// A rejected batch applies nothing, even with valid entries first.
	if err := e.ApplyUpdates([]Update{
		{ID: 1, To: spatial.Point{X: 0.5, Y: 0.5}},
		{ID: 2, To: spatial.Point{X: math.NaN()}},
	}); err == nil {
		t.Fatal("mixed batch accepted")
	}
	if e.Snapshot() != old {
		t.Fatal("failed batch published a prefix")
	}
}

// TestEngineCloseIdempotent: Close is safe to call twice,
// enqueues after Close fail cleanly, and the engine keeps serving.
func TestEngineCloseIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	ds := mkDataset(t, rng, 30, 0, false)
	e := newAsync(mkEngine(t, ds, Options{}))
	if err := moveUserAsync(e, 3, spatial.Point{X: 0.1, Y: 0.1}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	if got := e.Snapshot().Grid().Point(3); got != (spatial.Point{X: 0.1, Y: 0.1}) {
		t.Fatalf("move before Close lost: user 3 at %v", got)
	}
	if err := moveUserAsync(e, 4, spatial.Point{X: 0.2, Y: 0.2}); err == nil {
		t.Fatal("enqueue after Close accepted")
	}
	// Queries still work after Close.
	if _, err := e.Query(AIS, locatedUsers(ds)[0], Params{K: 3, Alpha: 0.5}); err != nil {
		t.Fatal(err)
	}
}

// TestFlushCloseRace: Flush racing Close must never hang — either the
// barrier completes or the shutdown releases the waiter; enqueues racing
// the shutdown fail cleanly instead of blocking on a dead queue.
func TestFlushCloseRace(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		ds := mkDataset(t, rng, 30, 0, false)
		e := newAsync(mkEngine(t, ds, Options{}))
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := moveUserAsync(e, int32((g*7+i)%30), spatial.Point{X: 0.5, Y: 0.5}); err != nil {
						return // closed mid-stream: expected
					}
					if i%10 == 0 {
						e.Flush()
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("trial %d: Flush/Close race deadlocked", trial)
		}
		e.Flush() // post-Close flush is a no-op, must not hang
	}
}
