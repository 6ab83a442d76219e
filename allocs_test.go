// Allocation-regression guard for the public query path. Excluded under the
// race detector, which instruments every allocation (see
// internal/core/allocs_test.go).
//
//go:build !race

package ssrq

import "testing"

// routedQueryAllocBudget was set at two allocations over the five a routed
// query made while it also allocated a shared fan-out bound. It measures four
// now: the search's three (the Result, its entries copy, one heuristic
// closure) plus the snapshot slice routing adds to every query.
const routedQueryAllocBudget = 7

// TestRoutedQueryAllocBudget: Engine.Query always goes through the router, so
// the default one-shard path gets its own pinned budget — nothing
// proportional to the dataset or the shard count may creep into it.
func TestRoutedQueryAllocBudget(t *testing.T) {
	ds, err := Synthesize("twitter", 600, 271) // every user located
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, &Options{Seed: 271})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	prm := Params{K: 10, Alpha: 0.5}
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		q := UserID(i % ds.NumUsers())
		i++
		if _, err := eng.Query(AIS, q, prm); err != nil {
			t.Fatal(err)
		}
	})
	if avg > routedQueryAllocBudget {
		t.Errorf("AIS at one shard: %.1f allocs/query exceeds budget %d", avg, routedQueryAllocBudget)
	}
	t.Logf("AIS at one shard: %.1f allocs/query (budget %d)", avg, routedQueryAllocBudget)
}
