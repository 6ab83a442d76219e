package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestCloseMidRebuildStopsBackgroundWork is the -race shutdown regression:
// Close must wait for (or cancel) an in-flight background landmark rebuild,
// so no goroutine outlives it, concurrently with churn still being enqueued.
// Run under -race this also proves Close never races the rebuild loop's
// installs.
func TestCloseMidRebuildStopsBackgroundWork(t *testing.T) {
	for round := 0; round < 4; round++ {
		before := runtime.NumGoroutine()
		rng := rand.New(rand.NewSource(int64(6200 + round)))
		ds := mkDataset(t, rng, 150, 0, false)
		e := mkEngine(t, ds, Options{
			LandmarkRepairBudget: 1, // every removal disables: rebuilds always in flight
		})
		// Kick churn from two goroutines (sync + async paths) and Close in
		// the middle of it.
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*round + g)))
				for i := 0; i < 200; i++ {
					u, v := rng.Int31n(150), rng.Int31n(150)
					if u == v {
						continue
					}
					if i%2 == 0 {
						_ = e.AddFriend(u, v, 0.1+rng.Float64())
					} else {
						_ = removeFriendAsync(e, u, v) // may fail after Close: fine
					}
				}
			}()
		}
		time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		e.Close()
		e.Close() // idempotent
		wg.Wait()
		// Queries stay valid after Close.
		if _, err := e.Query(AIS, locatedUsers(ds)[0], Params{K: 3, Alpha: 0.5}); err != nil {
			t.Fatalf("post-Close query: %v", err)
		}
		// Close waited for the rebuild loop, so the goroutine count must
		// settle back (generous retries absorb unrelated runtime goroutines).
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before+2 {
			t.Fatalf("round %d: %d goroutines after Close, started with %d", round, got, before)
		}
	}
}

// TestSustainedChurnLandmarkRecovery: a burst of disabling churn (repair
// budget 1, so nearly every effective op disables a landmark) must always
// converge — once churn stops, the background rebuild (plus the
// forced-install fallback if the race was lost 8 times mid-burst) must
// restore every landmark WITHOUT any synchronous rebuild call. Whether a
// forced install actually fires here is scheduler-dependent; the
// deterministic forced-install coverage lives in the aggindex tests
// (TestForcedInstallBoundsLandmarkStarvation) via the install-race seam.
func TestSustainedChurnLandmarkRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 400
	ds := mkDataset(t, rng, n, 0, false)
	e := mkEngine(t, ds, Options{
		LandmarkRepairBudget:  1,
		ForcedInstallInterval: time.Millisecond,
	})
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
				if u == v {
					continue
				}
				if rng.Intn(2) == 0 {
					_ = e.AddFriend(u, v, 0.1+rng.Float64())
				} else {
					_ = removeFriend(e, u, v)
				}
			}
		}()
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if e.SocialStats().LandmarkDisables == 0 {
		t.Fatal("churn burst never disabled a landmark — stress exercised nothing")
	}
	// No unbounded degradation window: with churn stopped, the background
	// loop must converge on its own.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if e.SocialStats().DisabledLandmarks == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := e.SocialStats()
	t.Fatalf("window never closed: %d landmarks still disabled (forced installs: %d)",
		st.DisabledLandmarks, st.LandmarkForcedInstalls)
}
