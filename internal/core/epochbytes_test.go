// Byte-budget gate for the write path. Excluded under the race detector,
// which instruments every allocation.
//
//go:build !race

package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ssrq/internal/gen"
	"ssrq/internal/spatial"
)

// TestEpochByteBudget: one synchronous ApplyUpdates on the ingest workload's
// world (gowalla 30k, dataset seed 42, the benchmark's move shape — a located
// user jumps next to another located user) allocates in proportion to what it
// touches. The budgets sit far below copying one summary level, one grid page
// of a thousand users or the leaves spine per epoch, which is what an epoch
// cost before summaries and grid state became copy-on-write per page.
func TestEpochByteBudget(t *testing.T) {
	ds, err := gen.GowallaPreset.Dataset(30000, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds, Options{Seed: 42}) // the server's defaults
	if err != nil {
		t.Fatal(err)
	}
	located := locatedUsers(ds)
	rng := rand.New(rand.NewSource(42))
	moves := func(n int) []Update {
		ups := make([]Update, n)
		for i := range ups {
			at := ds.Pts[located[rng.Intn(len(located))]]
			ups[i] = Update{ID: located[rng.Intn(len(located))], To: spatial.Point{
				X: at.X + rng.NormFloat64()*1e-3,
				Y: at.Y + rng.NormFloat64()*1e-3,
			}}
		}
		return ups
	}
	for _, tc := range []struct {
		moves  int
		budget uint64
	}{{1, 64 << 10}, {256, 512 << 10}} {
		var samples []uint64
		for round := 0; round < 12; round++ {
			batch := moves(tc.moves)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := e.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if round >= 2 { // the first epochs grow writer-side scratch once
				samples = append(samples, after.TotalAlloc-before.TotalAlloc)
			}
		}
		slices.Sort(samples)
		got := samples[len(samples)/2]
		t.Logf("%d moves: median %.1f KB per epoch (max %.1f KB, budget %d KB)",
			tc.moves, float64(got)/1024, float64(samples[len(samples)-1])/1024, tc.budget>>10)
		if got > tc.budget {
			t.Errorf("%d moves: %.1f KB per epoch exceeds budget %d KB", tc.moves, float64(got)/1024, tc.budget>>10)
		}
	}
}
