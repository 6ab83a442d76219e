package landmark

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ssrq/internal/graph"
)

// churnStep applies one random edge op to the overlay and repairs the
// dynamic tables, returning the post-change graph.
func churnStep(t *testing.T, rng *rand.Rand, o *graph.Overlay, d *Dynamic, n int) *graph.Graph {
	t.Helper()
	for {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		oldW, had := o.EdgeWeight(u, v)
		switch rng.Intn(3) {
		case 0: // insert or reweight
			w := 0.1 + rng.Float64()*2
			if _, err := o.SetEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
			d.EdgeChanged(o.Working(), u, v, oldW, had, w, true)
		case 1: // remove (retry when absent so removals actually happen)
			if !had {
				continue
			}
			if _, err := o.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
			d.EdgeChanged(o.Working(), u, v, oldW, true, 0, false)
		case 2: // reweight strictly up or down
			if !had {
				continue
			}
			w := oldW * (0.4 + rng.Float64()*1.4)
			if w == oldW {
				continue
			}
			if _, err := o.SetEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
			d.EdgeChanged(o.Working(), u, v, oldW, true, w, true)
		}
		return o.Working()
	}
}

// TestIncrementalRepairStaysExact is the core property of dynamic
// maintenance: after arbitrary interleaved inserts/removes/reweights, one op
// per batch, every landmark's table must equal a fresh Dijkstra on the
// mutated graph, bit for bit. A single op never rewrites more than n entries,
// so every table here is repaired in place, never recomputed.
func TestIncrementalRepairStaysExact(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 15 + rng.Intn(50)
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			_ = b.AddEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), 0.1+rng.Float64()*2)
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				_ = b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0.1+rng.Float64()*2)
			}
		}
		g := b.MustBuild()
		m := 1 + rng.Intn(5)
		s, err := Select(g, m, Strategy(rng.Intn(3)), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		d := NewDynamic(s)
		o := graph.NewOverlay(g)

		for step := 0; step < 60; step++ {
			cur := churnStep(t, rng, o, d, n)
			set, _ := d.Commit(cur, nil)
			for j, lmv := range set.Vertices() {
				want := cur.DistancesFrom(lmv)
				for v := 0; v < n; v++ {
					if got := set.VertexRow(graph.VertexID(v))[j]; got != want[v] {
						t.Fatalf("trial %d step %d: landmark %d dist to %d = %v, want %v",
							trial, step, j, v, got, want[v])
					}
				}
			}
		}
		if _, _, rebuilds := d.Stats(); rebuilds != 0 {
			t.Fatalf("trial %d: %d single-op batches recomputed a table", trial, rebuilds)
		}
	}
}

// TestStaleLandmarksRecomputedAtCommit drives batches of many ops, enough for
// a landmark's repairs to rewrite more than n entries, so it goes stale
// mid-batch and stops repairing: no landmark's repairs settle more than 2n
// vertices in a batch. Commit must hand back exact tables all the same, and
// the dirty list (repairs plus Commit's diff) must name every vertex whose
// distance to some landmark differs from the previous epoch's.
func TestStaleLandmarksRecomputedAtCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const n = 60
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), 0.5+rng.Float64())
	}
	g := b.MustBuild()
	s, err := Select(g, 4, Farthest, 9)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(s)
	o := graph.NewOverlay(g)
	prev := s
	for batch := 0; batch < 12; batch++ {
		var dirty []graph.VertexID
		for op := 0; op < 4*n; op++ {
			u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			oldW, had := o.EdgeWeight(u, v)
			if had && rng.Intn(2) == 0 {
				if _, err := o.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				dirty = append(dirty, d.EdgeChanged(o.Working(), u, v, oldW, true, 0, false)...)
				continue
			}
			w := 0.05 + rng.Float64()*2
			if _, err := o.SetEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
			dirty = append(dirty, d.EdgeChanged(o.Working(), u, v, oldW, had, w, true)...)
		}
		for j, spent := range d.spent {
			if spent > 2*n {
				t.Fatalf("batch %d: landmark %d's repairs settled %d vertices, more than 2n", batch, j, spent)
			}
		}
		cur := o.Working()
		set, dirty := d.Commit(cur, dirty)
		inDirty := make(map[graph.VertexID]bool, len(dirty))
		for _, v := range dirty {
			inDirty[v] = true
		}
		for j, lmv := range set.Vertices() {
			want := cur.DistancesFrom(lmv)
			for v := 0; v < n; v++ {
				x := graph.VertexID(v)
				if got := set.VertexRow(x)[j]; got != want[v] {
					t.Fatalf("batch %d: landmark %d dist to %d = %v, want %v", batch, j, v, got, want[v])
				}
				if set.VertexRow(x)[j] != prev.VertexRow(x)[j] && !inDirty[x] {
					t.Fatalf("batch %d: vertex %d moved for landmark %d but is not dirty", batch, v, j)
				}
			}
		}
		prev = set
	}
	if _, _, rebuilds := d.Stats(); rebuilds == 0 {
		t.Fatal("no batch drove a landmark past n rewritten entries")
	}
}

// TestCommitDirtyMatchesSequentialOrder: Commit recomputes its stale
// landmarks concurrently, but the dirty list it returns — and every column it
// installs — must be what recomputing them one by one, in landmark order,
// gives, at one core and at two.
func TestCommitDirtyMatchesSequentialOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(17))
		const n = 80
		g := randomGraph(rng, n, n)
		s, err := Select(g, 8, Farthest, 5)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDynamic(s)
		o := graph.NewOverlay(g)
		multi := 0
		for batch := 0; batch < 10; batch++ {
			dirty := []graph.VertexID{graph.VertexID(batch)} // Commit appends after what the batch reported
			for op := 0; op < 6*n; op++ {
				churnStep(t, rng, o, d, n)
			}
			cur := o.Working()
			want := append([]graph.VertexID(nil), dirty...)
			stale := 0
			for j, spent := range d.spent {
				if spent <= n {
					continue
				}
				stale++
				for v, dist := range cur.DistancesFrom(d.work.vertices[j]) {
					if dist != d.cur.vec(graph.VertexID(v))[j] {
						want = append(want, graph.VertexID(v))
					}
				}
			}
			if stale > 1 {
				multi++
			}
			set, got := d.Commit(cur, dirty)
			if !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d batch %d: dirty %v, sequential order %v", procs, batch, got, want)
			}
			for j, lmv := range set.Vertices() {
				for v, dist := range cur.DistancesFrom(lmv) {
					if got := set.VertexRow(graph.VertexID(v))[j]; math.Float64bits(got) != math.Float64bits(dist) {
						t.Fatalf("GOMAXPROCS=%d batch %d: landmark %d to %d = %v, want %v", procs, batch, j, v, got, dist)
					}
				}
			}
		}
		if multi == 0 {
			t.Fatalf("GOMAXPROCS=%d: no batch left two landmarks stale at once", procs)
		}
	}
}

// TestBoundsAdmissibleUnderChurn samples LowerBound ≤ true ≤ UpperBound on
// mutated graphs — the admissibility the paper's Lemma-2 pruning and the A*
// heuristic rest on, through repairs, disconnections and reconnections.
func TestBoundsAdmissibleUnderChurn(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		n := 20 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			_ = b.AddEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), 0.1+rng.Float64())
		}
		g := b.MustBuild()
		s, err := Select(g, 3, Farthest, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		d := NewDynamic(s)
		o := graph.NewOverlay(g)
		for step := 0; step < 50; step++ {
			cur := churnStep(t, rng, o, d, n)
			set, _ := d.Commit(cur, nil)
			src := graph.VertexID(rng.Intn(n))
			dist := cur.DistancesFrom(src)
			h := set.HeuristicTo(src)
			for v := 0; v < n; v++ {
				lo := set.LowerBound(src, graph.VertexID(v))
				hi := set.UpperBound(src, graph.VertexID(v))
				if lo > dist[v]+1e-9 {
					t.Fatalf("trial %d step %d: LowerBound(%d,%d) = %v > true %v",
						trial, step, src, v, lo, dist[v])
				}
				if hi < dist[v]-1e-9 {
					t.Fatalf("trial %d step %d: UpperBound(%d,%d) = %v < true %v",
						trial, step, src, v, hi, dist[v])
				}
				if hv := h(graph.VertexID(v)); hv > dist[v]+1e-9 {
					t.Fatalf("trial %d step %d: heuristic %v > true %v", trial, step, hv, dist[v])
				}
			}
		}
	}
}

// TestCommittedEpochsAreImmutable freezes a Set mid-churn and verifies its
// every entry and bound stays bit-stable while later epochs mutate.
func TestCommittedEpochsAreImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 50
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), 0.2+rng.Float64())
	}
	g := b.MustBuild()
	s, err := Select(g, 3, Random, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(s)
	o := graph.NewOverlay(g)

	frozen, _ := d.Commit(churnStep(t, rng, o, d, n), nil)
	var want []float64
	for v := 0; v < frozen.NumVertices(); v++ {
		want = append(want, frozen.VertexRow(graph.VertexID(v))...)
	}

	for step := 0; step < 30; step++ {
		d.Commit(churnStep(t, rng, o, d, n), nil)
	}
	var got []float64
	for v := 0; v < frozen.NumVertices(); v++ {
		got = append(got, frozen.VertexRow(graph.VertexID(v))...)
	}
	for i := range want {
		if want[i] != got[i] && !(math.IsNaN(want[i]) && math.IsNaN(got[i])) {
			t.Fatalf("frozen epoch entry %d changed: %v -> %v", i, want[i], got[i])
		}
	}
}

func buildChain(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n-1; v++ {
		_ = b.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	return b.MustBuild()
}

// TestNewDynamicBeyondSixtyFourLandmarks: a set with more landmarks than a
// 64-bit mask holds is maintained like any other — every column is repaired
// to an exact Dijkstra after each op.
func TestNewDynamicBeyondSixtyFourLandmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 70
	g := buildChain(n)
	s, err := Select(g, 65, Random, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(s)
	o := graph.NewOverlay(g)
	for step := 0; step < 40; step++ {
		cur := churnStep(t, rng, o, d, n)
		set, _ := d.Commit(cur, nil)
		if set.M() != 65 {
			t.Fatalf("step %d: %d landmarks, want 65", step, set.M())
		}
		for j, lmv := range set.Vertices() {
			want := cur.DistancesFrom(lmv)
			for v := 0; v < n; v++ {
				if got := set.VertexRow(graph.VertexID(v))[j]; got != want[v] {
					t.Fatalf("step %d: landmark %d dist to %d = %v, want %v", step, j, v, got, want[v])
				}
			}
		}
	}
}

// TestDisconnectionAndReconnection exercises the +Inf transitions: removing
// a bridge must push the cut-off side to +Inf, re-adding it must restore
// finite exact distances.
func TestDisconnectionAndReconnection(t *testing.T) {
	const n = 10
	g := buildChain(n)
	s, err := Select(g, 1, HighestDegree, 0)
	if err != nil {
		t.Fatal(err)
	}
	lmv := s.Vertices()[0]
	d := NewDynamic(s)
	o := graph.NewOverlay(g)

	// Cut the chain between 4 and 5.
	if _, err := o.RemoveEdge(4, 5); err != nil {
		t.Fatal(err)
	}
	d.EdgeChanged(o.Working(), 4, 5, 1, true, 0, false)
	set, _ := d.Commit(o.Working(), nil)
	want := o.Working().DistancesFrom(lmv)
	sawInf := false
	for v := 0; v < n; v++ {
		got := set.VertexRow(graph.VertexID(v))[0]
		if got != want[v] {
			t.Fatalf("post-cut dist to %d = %v, want %v", v, got, want[v])
		}
		if math.IsInf(got, 1) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatal("cutting the bridge disconnected nothing")
	}

	// Reconnect with a different weight.
	if _, err := o.SetEdge(4, 5, 0.25); err != nil {
		t.Fatal(err)
	}
	d.EdgeChanged(o.Working(), 4, 5, 0, false, 0.25, true)
	set, _ = d.Commit(o.Working(), nil)
	want = o.Working().DistancesFrom(lmv)
	for v := 0; v < n; v++ {
		if got := set.VertexRow(graph.VertexID(v))[0]; got != want[v] {
			t.Fatalf("post-reconnect dist to %d = %v, want %v", v, got, want[v])
		}
		if math.IsInf(set.VertexRow(graph.VertexID(v))[0], 1) {
			t.Fatalf("vertex %d still unreachable after reconnect", v)
		}
	}
}

// TestRepairHeapAllocatedByFirstEdgeOp: the repair heap holds n positions,
// so an engine whose graph never changes must not pay for it. NewDynamic and
// an empty Commit leave it unallocated; the first edge op allocates it, and
// later repairs reuse it.
func TestRepairHeapAllocatedByFirstEdgeOp(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n = 40
	g := randomGraph(rng, n, n)
	s, err := Select(g, 3, Farthest, 45)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(s)
	if d.Commit(g, nil); d.heap != nil {
		t.Fatal("NewDynamic or an empty Commit allocated the repair heap")
	}
	// The first op inserts an edge, which runs a decrease repair for every
	// landmark.
	o := graph.NewOverlay(g)
	u, v := graph.VertexID(0), graph.VertexID(1)
	for _, had := o.EdgeWeight(u, v); had; _, had = o.EdgeWeight(u, v) {
		v++
	}
	if _, err := o.SetEdge(u, v, 0.05); err != nil {
		t.Fatal(err)
	}
	d.EdgeChanged(o.Working(), u, v, 0, false, 0.05, true)
	h := d.heap
	if h == nil {
		t.Fatal("the first edge op ran its repairs without a heap")
	}
	for step := 0; step < 20; step++ {
		churnStep(t, rng, o, d, n)
	}
	if d.heap != h {
		t.Fatal("a later repair allocated a second heap")
	}
}
