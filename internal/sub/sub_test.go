package sub_test

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/shard"
	"ssrq/internal/spatial"
	"ssrq/internal/sub"
)

// world is the full engine surface the harness drives: sub.Source plus the
// write queue, i.e. shard.Engine at any shard count.
type world interface {
	sub.Source
	ApplyUpdatesAsync(ops []core.Update) error
	Flush()
	Close()
}

func newDataset(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges, pts, located, err := gen.GeoSocial(gen.GeoSocialConfig{
		N: n, M: 4, PLocal: 0.6, Cities: 5, LocatedFrac: 0.85,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildGraph(n, edges, gen.DegreeProductWeights(n, edges))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.New("subtest", g, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func locatedUsers(ds *dataset.Dataset) []graph.VertexID {
	var out []graph.VertexID
	for v := 0; v < ds.NumUsers(); v++ {
		if ds.Located[v] {
			out = append(out, graph.VertexID(v))
		}
	}
	return out
}

// oracle re-runs the standing query from scratch; an unlocated subscriber
// maps to the empty result, exactly like the subscription engine.
func oracle(t *testing.T, src world, q int32, prm core.Params) []core.Entry {
	t.Helper()
	res, err := src.Query(core.AIS, graph.VertexID(q), prm)
	if err != nil {
		return nil
	}
	return res.Entries
}

func sameEntries(t *testing.T, label string, got, want []core.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d\n got:  %+v\n want: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Abs(g.F-w.F) > 1e-12 {
			t.Fatalf("%s: rank %d got (id=%d f=%v), want (id=%d f=%v)", label, i, g.ID, g.F, w.ID, w.F)
		}
	}
}

// applyDelta maintains a client-side materialized view from the delta
// stream alone, re-sorting by (F, ID) — what an SSE consumer would do.
func applyDelta(t *testing.T, view []core.Entry, d sub.Delta) []core.Entry {
	t.Helper()
	m := make(map[int32]core.Entry, len(view)+len(d.Added))
	for _, e := range view {
		m[e.ID] = e
	}
	for _, id := range d.Removed {
		if _, ok := m[id]; !ok {
			t.Fatalf("delta removes %d which the view never held", id)
		}
		delete(m, id)
	}
	for _, e := range d.Rescored {
		if _, ok := m[e.ID]; !ok {
			t.Fatalf("delta rescores %d which the view never held", e.ID)
		}
		m[e.ID] = e
	}
	for _, e := range d.Added {
		if _, ok := m[e.ID]; ok {
			t.Fatalf("delta adds %d which the view already holds", e.ID)
		}
		m[e.ID] = e
	}
	out := make([]core.Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].F != out[j].F {
			return out[i].F < out[j].F
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// runDifferential replays one randomized interleaved move+edge stream and,
// at every quiescent point, requires each subscription's result — and the
// view materialized purely from its deltas — to equal a from-scratch
// query. Because the equality is checked after every chunk, any unsound
// skip (an epoch the bound test wrongly proved unable to change a result)
// surfaces as a divergence here.
func runDifferential(t *testing.T, src world, ds *dataset.Dataset, seed int64) {
	e := sub.New(src)
	defer e.Close()

	rng := rand.New(rand.NewSource(seed))
	users := locatedUsers(ds)
	prm := core.Params{K: 10, Alpha: 0.3}
	bounds, _ := spatial.BoundingRect(ds.Pts, ds.Located)
	w, h := bounds.MaxX-bounds.MinX, bounds.MaxY-bounds.MinY

	nSubs := 40
	if nSubs > len(users)/2 {
		nSubs = len(users) / 2
	}
	subs := make([]*sub.Subscription, 0, nSubs)
	views := make(map[*sub.Subscription][]core.Entry, nSubs)
	for i := 0; i < nSubs; i++ {
		st, err := e.SubscribeParams(int32(users[i]), prm)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, st)
		views[st] = applyDelta(t, nil, st.Delta())
	}

	for chunk := 0; chunk < 10; chunk++ {
		// Social churn only every third chunk: an edge op forces a full
		// re-evaluation round (social scores have no per-user delta), so
		// the interleaving must leave move-only rounds for the bound test
		// to prove skips on.
		social := chunk%3 == 0
		for i := 0; i < 80; i++ {
			pick := users[rng.Intn(len(users))]
			op := rng.Intn(12)
			if !social && op < 2 {
				op = 3
			}
			switch op {
			case 0:
				u, v := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
				if u != v {
					if err := addFriendAsync(src, int32(u), int32(v), 0.3+rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			case 1:
				u, v := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
				if u != v {
					if err := removeFriendAsync(src, int32(u), int32(v)); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				if err := removeUserLocationAsync(src, int32(pick)); err != nil {
					t.Fatal(err)
				}
			default:
				var to spatial.Point
				if cur, ok := src.UserLocation(int32(pick)); ok && rng.Intn(3) > 0 {
					// Local jitter — the regime where the skip bounds bite.
					to = spatial.Point{X: cur.X + (rng.Float64()-0.5)*w/50, Y: cur.Y + (rng.Float64()-0.5)*h/50}
					if !bounds.Contains(to) {
						to = spatial.Point{X: bounds.MinX + rng.Float64()*w, Y: bounds.MinY + rng.Float64()*h}
					}
				} else {
					to = spatial.Point{X: bounds.MinX + rng.Float64()*w, Y: bounds.MinY + rng.Float64()*h}
				}
				if err := moveUserAsync(src, int32(pick), to); err != nil {
					t.Fatal(err)
				}
			}
		}
		src.Flush()
		e.Sync()

		for i, st := range subs {
			want := oracle(t, src, int32(users[i]), prm)
			got := st.Result()
			sameEntries(t, "chunk "+string(rune('0'+chunk))+" subscription vs oracle", got, want)
			views[st] = applyDelta(t, views[st], st.Delta())
			sameEntries(t, "delta-applied view vs result", views[st], got)
			if chunk == 9 && i < 4 {
				// Spot-check against the engine's own exact method too.
				brute, err := src.Query(core.BruteForce, users[i], prm)
				if err == nil {
					sameEntries(t, "subscription vs brute force", got, brute.Entries)
				}
			}
		}
	}

	st := e.Stats()
	if st.Evals == 0 {
		t.Fatalf("no evaluations ran: %+v", st)
	}
	if st.Skips == 0 {
		t.Fatalf("bound test never skipped anything under local jitter: %+v", st)
	}
	t.Logf("stats: %+v (skip rate %.2f)", st, float64(st.Skips)/float64(st.Skips+st.Evals))
}

func TestDifferentialOneShard(t *testing.T) {
	ds := newDataset(t, 400, 21)
	eng, err := shard.New(ds, 1, core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	runDifferential(t, eng, ds, 101)
}

func TestDifferentialSharded(t *testing.T) {
	ds := newDataset(t, 400, 22)
	eng, err := shard.New(ds, 4, core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	runDifferential(t, eng, ds, 102)
}

// TestSkipSoundnessProvably builds a world with two disconnected, far-apart
// communities: a subscriber in one, a mover in the other. Every one of the
// mover's epochs must be provably unable to change the subscriber's result
// (landmark bound +Inf across components, spatial distance huge), so the
// engine must skip them all — and the result must indeed never change.
func TestSkipSoundnessProvably(t *testing.T) {
	const n = 40
	b := graph.NewBuilder(n)
	pts := make([]spatial.Point, n)
	located := make([]bool, n)
	// Community A: users 0..19 in a tight cluster near the origin, a path
	// graph. Community B: users 20..39 far away, its own path graph.
	for i := 0; i < 20; i++ {
		if i > 0 {
			if err := b.AddEdge(int32(i-1), int32(i), 1); err != nil {
				t.Fatal(err)
			}
		}
		pts[i] = spatial.Point{X: float64(i) * 0.1, Y: 0}
		located[i] = true
	}
	for i := 20; i < n; i++ {
		if i > 20 {
			if err := b.AddEdge(int32(i-1), int32(i), 1); err != nil {
				t.Fatal(err)
			}
		}
		pts[i] = spatial.Point{X: 1000 + float64(i)*0.1, Y: 1000}
		located[i] = true
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.New("twocomm", g, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.New(ds, 1, core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	e := sub.New(eng)
	defer e.Close()

	prm := core.Params{K: 5, Alpha: 0.3}
	st, err := e.SubscribeParams(0, prm)
	if err != nil {
		t.Fatal(err)
	}
	want := st.Result()
	if len(want) == 0 {
		t.Fatal("subscriber 0 got an empty initial result")
	}
	round0 := st.Delta().Round
	base := e.Stats()

	// 30 epochs of community-B movement, each flushed individually so every
	// epoch is its own evaluation round.
	bnds, _ := spatial.BoundingRect(ds.Pts, ds.Located)
	for i := 0; i < 30; i++ {
		id := int32(25 + i%10)
		cur, ok := eng.UserLocation(id)
		if !ok {
			t.Fatalf("mover %d unlocated", id)
		}
		to := spatial.Point{X: cur.X + 0.01, Y: cur.Y + 0.01}
		if !bnds.Contains(to) {
			to = cur
		}
		if err := eng.ApplyUpdates([]core.Update{{ID: id, To: to}}); err != nil {
			t.Fatal(err)
		}
		e.Sync()
	}

	stat := e.Stats()
	if evals := stat.Evals - base.Evals; evals != 0 {
		t.Fatalf("expected every cross-community epoch skipped, got %d evals", evals)
	}
	if skips := stat.Skips - base.Skips; skips == 0 {
		t.Fatalf("no skips recorded: %+v", stat)
	}
	if d := st.Delta(); d.Round != round0 || !d.Empty() {
		t.Fatalf("result version moved (%d -> %d, delta %+v) though nothing could change", round0, d.Round, d)
	}
	sameEntries(t, "after cross-community churn", st.Result(), oracle(t, eng, 0, prm))
}

// TestSubscribersUnderShardedChurn is the -race stress: live subscribers and
// concurrent cross-shard movers on a sharded engine, then a quiescent
// exactness check.
func TestSubscribersUnderShardedChurn(t *testing.T) {
	ds := newDataset(t, 400, 31)
	eng, err := shard.New(ds, 4, core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	e := sub.New(eng)
	defer e.Close()

	users := locatedUsers(ds)
	prm := core.Params{K: 10, Alpha: 0.3}
	var subs []*sub.Subscription
	for i := 0; i < 16; i++ {
		st, err := e.SubscribeParams(int32(users[i]), prm)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, st)
	}

	bounds, _ := spatial.BoundingRect(ds.Pts, ds.Located)
	w, h := bounds.MaxX-bounds.MinX, bounds.MaxY-bounds.MinY
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // mover: drift the population into one corner, across shards
		defer wg.Done()
		rng := rand.New(rand.NewSource(777))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := users[rng.Intn(len(users))]
			to := spatial.Point{
				X: bounds.MinX + rng.Float64()*w/4,
				Y: bounds.MinY + rng.Float64()*h/4,
			}
			if err := moveUserAsync(eng, int32(id), to); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // reader: hammer the subscription read surface
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, st := range subs {
				_ = st.Result()
				_ = st.Delta()
			}
		}
	}()

	for i := 0; i < 3; i++ {
		eng.Flush()
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	eng.Flush()
	e.Sync()
	for i, st := range subs {
		sameEntries(t, "after churn", st.Result(), oracle(t, eng, int32(users[i]), prm))
	}
}

// TestCloseSettlesGoroutines: Engine.Close must stop the evaluator and
// unblock every Notify consumer; no goroutine may outlive it.
func TestCloseSettlesGoroutines(t *testing.T) {
	ds := newDataset(t, 200, 41)
	before := runtime.NumGoroutine()
	eng, err := shard.New(ds, 1, core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	e := sub.New(eng)
	users := locatedUsers(ds)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		st, err := e.SubscribeParams(int32(users[i]), core.Params{K: 5, Alpha: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { // a consumer blocked on Notify, like an SSE handler
			defer wg.Done()
			for range st.Notify() {
				st.Delta()
			}
		}()
	}
	// Subscribe mid-flight churn so Close races an active evaluator.
	bounds, _ := spatial.BoundingRect(ds.Pts, ds.Located)
	for i := 0; i < 64; i++ {
		id := users[i%len(users)]
		if err := moveUserAsync(eng, int32(id), spatial.Point{X: bounds.MinX, Y: bounds.MinY}); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	wg.Wait() // Close must have closed every Notify channel
	eng.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
}

// TestSubscribeUnlocatedUser: a subscriber without a location starts empty
// and starts serving once located.
func TestSubscribeUnlocatedUser(t *testing.T) {
	ds := newDataset(t, 200, 51)
	eng, err := shard.New(ds, 1, core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	e := sub.New(eng)
	defer e.Close()

	var uq int32 = -1
	for v := 0; v < ds.NumUsers(); v++ {
		if !ds.Located[v] {
			uq = int32(v)
			break
		}
	}
	if uq < 0 {
		t.Skip("dataset fully located")
	}
	st, err := e.SubscribeParams(uq, core.Params{K: 5, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Result(); len(got) != 0 {
		t.Fatalf("unlocated subscriber got %d entries", len(got))
	}
	bounds, _ := spatial.BoundingRect(ds.Pts, ds.Located)
	if err := eng.ApplyUpdates([]core.Update{{ID: uq, To: spatial.Point{X: (bounds.MinX + bounds.MaxX) / 2, Y: (bounds.MinY + bounds.MaxY) / 2}}}); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	want := oracle(t, eng, uq, core.Params{K: 5, Alpha: 0.3})
	if len(want) == 0 {
		t.Fatal("oracle still empty after locating the subscriber")
	}
	sameEntries(t, "after locating", st.Result(), want)
	d := st.Delta()
	if len(d.Added) != len(want) || len(d.Removed) != 0 {
		t.Fatalf("expected a pure-added delta, got %+v", d)
	}
}

// Single-op forms of ApplyUpdatesAsync, the asynchronous mutation entry
// point.

type enqueuer interface {
	ApplyUpdatesAsync(ops []core.Update) error
}

func moveUserAsync(e enqueuer, id int32, to spatial.Point) error {
	return e.ApplyUpdatesAsync([]core.Update{{ID: id, To: to}})
}

func removeUserLocationAsync(e enqueuer, id int32) error {
	return e.ApplyUpdatesAsync([]core.Update{{ID: id, Remove: true}})
}

func addFriendAsync(e enqueuer, u, v int32, w float64) error {
	return e.ApplyUpdatesAsync([]core.Update{{Kind: core.OpEdgeUpsert, U: u, V: v, W: w}})
}

func removeFriendAsync(e enqueuer, u, v int32) error {
	return e.ApplyUpdatesAsync([]core.Update{{Kind: core.OpEdgeRemove, U: u, V: v}})
}
