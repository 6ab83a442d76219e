// Allocation-regression guard for the pooled query hot path. Excluded under
// the race detector: -race instruments every allocation and sync.Pool
// behaves differently there, so the counts are meaningless.
//
//go:build !race

package core

import (
	"math/rand"
	"testing"
)

// allocBudgets is the committed per-query allocation budget of the serving
// path (the CI bench gate enforces the same numbers on the benchmark
// output). The steady-state cost is the Result struct and its entries copy;
// AIS additionally materializes one heuristic closure per query.
var allocBudgets = []struct {
	algo   Algorithm
	budget float64
}{
	{SFA, 2},
	{SPA, 2},
	{TSA, 8},
	{TSAQC, 8},
	{AIS, 8},
	{AISMinus, 8},
}

// TestQueryAllocBudget: a steady-state query must stay within the committed
// allocation budget — the pooled scratch (topK entries, iterators, heaps,
// graph-distance state) covers everything proportional to dataset size, so
// the zero-alloc property cannot silently erode.
func TestQueryAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	ds := mkDataset(t, rng, 600, 0.1, false)
	e := mkEngine(t, ds, Options{Seed: 271})
	users := locatedUsers(ds)
	prm := Params{K: 10, Alpha: 0.5}

	for _, tc := range allocBudgets {
		i := 0
		// AllocsPerRun runs the body once as warm-up, which charges the
		// sync.Pool fills and memoized state to no measured run, and pins
		// GOMAXPROCS to 1 so the pool cannot miss across Ps.
		avg := testing.AllocsPerRun(50, func() {
			q := users[i%len(users)]
			i++
			if _, err := e.Query(tc.algo, q, prm); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.budget {
			t.Errorf("%v: %.1f allocs/query exceeds budget %.0f", tc.algo, avg, tc.budget)
		}
	}
}

// TestEdgeOpAllocBudget pins the synchronous edge-op apply path: one overlay
// patch, the incremental landmark repairs, the index's summary re-sync and
// the epoch publish. It measures 16 allocs/op; the budget leaves a small
// margin for per-op variance (repair scope depends on the edge) and catches a
// regression to per-repair scratch, per-op table copies or per-index
// broadcast work.
func TestEdgeOpAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(272))
	ds := mkDataset(t, rng, 600, 0.1, false)
	e := mkEngine(t, ds, Options{Seed: 272})

	// Warm the apply path's amortized growth (dirty-vertex scratch, overlay
	// delta) before measuring, with the same rotating reweight pattern the
	// measured loop uses: every op finds the opposite weight, so each is an
	// effective update, never a no-op.
	const pairs = 32
	op := func(i int) {
		u := int32(i % pairs)
		v := u + pairs
		w := 0.25 + float64((i/pairs)&1)*0.5
		if err := e.AddFriend(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*pairs; i++ {
		op(i)
	}
	i := 4 * pairs
	avg := testing.AllocsPerRun(2*pairs, func() {
		op(i)
		i++
	})
	const budget = 20
	t.Logf("edge op: %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("edge op: %.1f allocs/op exceeds budget %d", avg, budget)
	}
}
