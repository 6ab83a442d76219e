package shard

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ssrq/internal/aggindex"
	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// clusteredDataset synthesizes a geo-clustered paper-substitute dataset (the
// workload sharding targets).
func clusteredDataset(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges, pts, located, err := gen.GeoSocial(gen.GeoSocialConfig{
		N: n, M: 4, PLocal: 0.6, Cities: 6, LocatedFrac: 0.8,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildGraph(n, edges, gen.DegreeProductWeights(n, edges))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.New("clustered", g, pts, located)
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

// sameEntries asserts exact agreement: same IDs in the same order with
// bit-comparable scores (both engines run identical arithmetic).
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

// shardOfUser returns the shard the user's last routed location op went to,
// -1 when the user has no indexed location.
func shardOfUser(se *Engine, id int32) int {
	if id < 0 || int(id) >= len(se.owner) {
		return -1
	}
	return int(se.owner[id].Load())
}

// cellShard returns the shard currently owning grid leaf cell idx.
func cellShard(se *Engine, idx int32) int { return int(se.cellShard[idx].Load()) }

// requireRefused asserts that the engine refuses algo at the served-menu gate,
// with an error naming it.
func requireRefused(t *testing.T, se *Engine, algo core.Algorithm, q graph.VertexID, prm core.Params) {
	t.Helper()
	_, err := se.Query(algo, q, prm)
	if err == nil {
		t.Fatalf("%v served; only %v are", algo, Served)
	}
	if !strings.Contains(err.Error(), algo.String()+" is not served") {
		t.Fatalf("%v refused with an error that does not name it as unserved: %v", algo, err)
	}
}

// TestShardedMatchesUnshardedStatic: on a quiescent engine every served
// algorithm must return exactly the single-index reference's result for every
// shard count.
func TestShardedMatchesUnshardedStatic(t *testing.T) {
	ds := clusteredDataset(t, 400, 11)
	opts := core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 11}
	mono, err := core.NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	users := locatedUsers(ds)
	for _, S := range []int{1, 2, 4, 8} {
		se, err := New(ds, S, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(S)))
		for probe := 0; probe < 6; probe++ {
			q := users[rng.Intn(len(users))]
			prm := core.Params{K: 1 + rng.Intn(15), Alpha: 0.05 + 0.9*rng.Float64()}
			want, err := mono.Query(core.BruteForce, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range Served {
				got, err := se.Query(algo, q, prm)
				if err != nil {
					t.Fatalf("S=%d %v: %v", S, algo, err)
				}
				sameEntries(t, fmt.Sprintf("S=%d %v q=%d k=%d α=%.3f", S, algo, q, prm.K, prm.Alpha), got.Entries, want.Entries)
			}
		}
		se.Close()
	}
}

// TestQueryRefusesUnservedAlgorithms: at one shard and at four, Query answers
// exactly the Served menu and refuses every other Algorithm value — SPA, the
// five figure variants and an out-of-range one — with an error naming it,
// before any query counter moves.
func TestQueryRefusesUnservedAlgorithms(t *testing.T) {
	ds := clusteredDataset(t, 200, 29)
	q := locatedUsers(ds)[0]
	prm := core.Params{K: 5, Alpha: 0.4}
	for _, S := range []int{1, 4} {
		se, err := New(ds, S, core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 3, Seed: 29})
		if err != nil {
			t.Fatal(err)
		}
		served := 0
		for algo := core.SFA; algo <= core.BruteForce+1; algo++ {
			if !slices.Contains(Served, algo) {
				requireRefused(t, se, algo, q, prm)
				continue
			}
			if _, err := se.Query(algo, q, prm); err != nil {
				t.Fatalf("S=%d %v: %v", S, algo, err)
			}
			served++
		}
		if served != 4 {
			t.Fatalf("S=%d: %d algorithms served, want 4", S, served)
		}
		if fs := se.FanoutStats(); fs.Queries != int64(served) {
			t.Fatalf("S=%d: %d queries counted, want %d (refusals must not count)", S, fs.Queries, served)
		}
		se.Close()
	}
}

// TestCrossShardRouting: async moves that cross shard boundaries relocate
// ownership, never duplicate a user, and keep sharded results equal to a
// bare core.Engine (the single-index reference) applying the same ops
// synchronously. However many shards the moves touch, they queue once: the
// routed engine runs its one writer goroutine and, after Close, none.
func TestCrossShardRouting(t *testing.T) {
	idle := runtime.NumGoroutine()
	ds := clusteredDataset(t, 300, 17)
	opts := core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 17}
	mono, err := core.NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	se, err := New(ds, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	se.rebalanceThreshold = -1 // no background re-cut goroutine to count

	rng := rand.New(rand.NewSource(23))
	users := locatedUsers(ds)
	b, _ := spatial.BoundingRect(ds.Pts, ds.Located)
	for round := 0; round < 5; round++ {
		for i := 0; i < 40; i++ {
			op := core.Update{ID: int32(users[rng.Intn(len(users))])}
			if rng.Intn(10) == 0 {
				op.Remove = true
			} else {
				op.To = spatial.Point{
					X: b.MinX + rng.Float64()*b.Width(),
					Y: b.MinY + rng.Float64()*b.Height(),
				}
			}
			if err := se.ApplyUpdatesAsync([]core.Update{op}); err != nil {
				t.Fatal(err)
			}
			if err := mono.ApplyUpdates([]core.Update{op}); err != nil {
				t.Fatal(err)
			}
		}
		if n := settleGoroutines(idle+1) - idle; n > 1 {
			t.Fatalf("round %d: %d goroutines above idle with async moves queued on %d shards, want at most the one writer",
				round, n, se.NumShards())
		}
		se.Flush()

		if got, want := se.NumLocated(), mono.Snapshot().Grid().NumLocated(); got != want {
			t.Fatalf("round %d: sharded locates %d users, reference %d", round, got, want)
		}
		// Ownership invariant: every user is located in exactly the shard the
		// owner map names, and nowhere else.
		for v := 0; v < ds.NumUsers(); v++ {
			ownerShard := shardOfUser(se, int32(v))
			locatedIn := -1
			for s, sh := range se.shards {
				if sh.Snapshot().Grid().Located(int32(v)) {
					if locatedIn >= 0 {
						t.Fatalf("round %d: user %d located in shards %d and %d", round, v, locatedIn, s)
					}
					locatedIn = s
				}
			}
			if locatedIn != ownerShard {
				t.Fatalf("round %d: user %d owner=%d but located in %d", round, v, ownerShard, locatedIn)
			}
		}
		for probe := 0; probe < 3; probe++ {
			q := users[rng.Intn(len(users))]
			if !mono.Snapshot().Grid().Located(int32(q)) {
				continue
			}
			prm := core.Params{K: 8, Alpha: 0.3}
			want, err := mono.Query(core.AIS, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := se.Query(core.AIS, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, fmt.Sprintf("round %d q=%d", round, q), got.Entries, want.Entries)
		}
	}

	t.Run("OneDeltaPerBatch", func(t *testing.T) {
		// A cross-shard move is one batch and one published view, so the
		// epoch consumer hears one delta, and by then the view already holds
		// the new position.
		u, w := crossShardPair(t, se, users)
		dst, _ := se.UserLocation(w)
		var calls int
		var moved bool
		var seen spatial.Point
		se.OnEpoch(func(d aggindex.EpochDelta) {
			calls++
			moved = slices.Contains(d.Moved, u)
			seen, _ = se.UserLocation(u)
		})
		defer se.OnEpoch(nil)
		if err := moveUser(se, u, dst); err != nil {
			t.Fatal(err)
		}
		if calls != 1 || !moved || seen != dst {
			t.Fatalf("cross-shard move: %d deltas (want 1), mover in the last: %v, position seen by it %v (want %v)",
				calls, moved, seen, dst)
		}
	})

	t.Run("MixedBatchIsOneEpochPerShard", func(t *testing.T) {
		// A batch mixing a cross-shard move with an edge op is one epoch per
		// shard: the two shards the move touches take the social change in the
		// same apply, and every shard publishes at the batch's one social
		// epoch.
		u, w := crossShardPair(t, se, users)
		dst, _ := se.UserLocation(w)
		before := se.ShardStats()
		batch := []core.Update{{ID: u, To: dst}, {Kind: core.OpEdgeUpsert, U: u, V: w, W: 0.123}}
		if err := se.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		for s, sh := range se.ShardStats() {
			if d := sh.Epoch - before[s].Epoch; d != 1 {
				t.Errorf("shard %d published %d epochs for one mixed batch, want 1", s, d)
			}
			if sh.SocialEpoch != before[0].SocialEpoch+1 {
				t.Errorf("shard %d at social epoch %d, want %d", s, sh.SocialEpoch, before[0].SocialEpoch+1)
			}
		}
	})

	se.Close()
	if n := settleGoroutines(idle) - idle; n > 0 {
		t.Fatalf("%d goroutines above idle after Close", n)
	}
}

// crossShardPair returns two located users on different shards.
func crossShardPair(t *testing.T, se *Engine, users []graph.VertexID) (u, w int32) {
	t.Helper()
	u = -1
	for _, v := range users {
		switch s := shardOfUser(se, int32(v)); {
		case s < 0:
		case u < 0:
			u = int32(v)
		case s != shardOfUser(se, u):
			return u, int32(v)
		}
	}
	t.Fatal("fixture: no two located users on different shards")
	return -1, -1
}

// settleGoroutines waits, for a few seconds at most, until no more than want
// goroutines run — one that has just finished its work may not have exited
// yet — and returns the last count.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestShardedAISPopsMatchOneIndex is the pop-count gate for one search over
// S snapshots: on the fixture and queries of core's
// TestPaperOrderingAsPopCounts (gowalla 5000, k=30, α=0.3, 40 queries), AIS
// at four shards does exactly the social work of AIS at one — the same
// forward and reverse pops and the same exact evaluations — because a user's
// key does not depend on which grid holds it (DESIGN.md §4.12, §5.6). A
// fan-out that repeated the social search per shard read about 1.9× here.
func TestShardedAISPopsMatchOneIndex(t *testing.T) {
	ds, err := gen.GowallaPreset.Dataset(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	users := locatedUsers(ds)
	prm := core.Params{K: 30, Alpha: 0.3}
	const queries = 40
	work := func(S int) (pops, calls int) {
		se, err := New(ds, S, core.Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		for i := 0; i < queries; i++ {
			res, err := se.Query(core.AIS, users[i*len(users)/queries], prm)
			if err != nil {
				t.Fatal(err)
			}
			pops += res.Stats.SocialPops
			calls += res.Stats.GraphDistCalls
		}
		return pops, calls
	}
	pops1, calls1 := work(1)
	pops4, calls4 := work(4)
	t.Logf("AIS over %d queries: S=1 %d social pops, %d evaluations; S=4 %d social pops, %d evaluations",
		queries, pops1, calls1, pops4, calls4)
	if pops4 != pops1 || calls4 != calls1 {
		t.Errorf("S=4 did %d social pops / %d evaluations, S=1 %d / %d: the social work is no longer done once",
			pops4, calls4, pops1, calls1)
	}
}

// TestNewValidation pins the constructor's error surface.
func TestNewValidation(t *testing.T) {
	ds := clusteredDataset(t, 60, 37)
	if _, err := New(nil, 2, core.Options{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := New(ds, 0, core.Options{}); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := New(ds, MaxShards+1, core.Options{}); err == nil {
		t.Fatal("too many shards accepted")
	}
	// More shards than leaf cells (2x2 grid, 1 level = 4 cells).
	if _, err := New(ds, 8, core.Options{GridS: 2, GridLevels: 1}); err == nil {
		t.Fatal("shards > cells accepted")
	}
	se, err := New(ds, 4, core.Options{GridS: 3, GridLevels: 1, NumLandmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := se.Query(core.AIS, -1, core.Params{K: 3, Alpha: 0.5}); err == nil {
		t.Fatal("negative query user accepted")
	}
	if _, err := se.Query(core.AIS, graph.VertexID(ds.NumUsers()), core.Params{K: 3, Alpha: 0.5}); err == nil {
		t.Fatal("out-of-range query user accepted")
	}
	if err := moveUser(se, 5, spatial.Point{X: math.NaN(), Y: 0}); err == nil {
		t.Fatal("NaN move accepted")
	}
	if err := addFriend(se, 3, 3, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
}

// TestPartitionCoversAllCells: every leaf cell maps to a valid shard and
// every shard owns at least one cell.
func TestPartitionCoversAllCells(t *testing.T) {
	ds := clusteredDataset(t, 200, 41)
	for _, S := range []int{1, 2, 4, 8, 16} {
		se, err := New(ds, S, core.Options{GridS: 5, GridLevels: 2, NumLandmarks: 2, Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		owned := make([]int, S)
		for idx := range se.cellShard {
			s := cellShard(se, int32(idx))
			if s < 0 || s >= S {
				t.Fatalf("S=%d: cell %d maps to shard %d", S, idx, s)
			}
			owned[s]++
		}
		for s, c := range owned {
			if c == 0 {
				t.Fatalf("S=%d: shard %d owns no cells", S, s)
			}
		}
		se.Close()
	}
}

// TestConcurrentEdgeBroadcastConvergence: concurrent async writers of
// overlapping edges must leave every shard's published graph identical —
// the one writer applies a pair's ops once, in queue order, on the substrate
// every shard reads.
func TestConcurrentEdgeBroadcastConvergence(t *testing.T) {
	ds := clusteredDataset(t, 100, 47)
	se, err := New(ds, 4, core.Options{GridS: 3, GridLevels: 1, NumLandmarks: 2, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	const writers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + w)))
			for i := 0; i < 150; i++ {
				// A tiny pair space maximizes same-edge contention.
				u, v := rng.Int31n(8), rng.Int31n(8)
				if u == v {
					continue
				}
				var err error
				if rng.Intn(4) == 0 {
					err = removeFriendAsync(se, u, v)
				} else {
					err = addFriendAsync(se, u, v, 0.05+rng.Float64())
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	se.Flush()

	// Every shard's published graph must agree edge for edge.
	ref := se.shards[0].Snapshot().SocialGraph()
	for s := 1; s < se.NumShards(); s++ {
		g := se.shards[s].Snapshot().SocialGraph()
		if g.NumEdges() != ref.NumEdges() {
			t.Fatalf("shard %d has %d edges, shard 0 has %d", s, g.NumEdges(), ref.NumEdges())
		}
		for u := int32(0); u < 8; u++ {
			for v := u + 1; v < 8; v++ {
				w0, ok0 := ref.EdgeWeight(u, v)
				ws, oks := g.EdgeWeight(u, v)
				if ok0 != oks || (ok0 && w0 != ws) {
					t.Fatalf("shards 0 and %d diverge on edge (%d,%d): (%v,%v) vs (%v,%v)", s, u, v, w0, ok0, ws, oks)
				}
			}
		}
	}
}

// Single-op forms of ApplyUpdates, the one synchronous mutation entry point.

func moveUser(se *Engine, id int32, to spatial.Point) error {
	return se.ApplyUpdates([]core.Update{{ID: id, To: to}})
}

func addFriend(se *Engine, u, v int32, w float64) error {
	return se.ApplyUpdates([]core.Update{{Kind: core.OpEdgeUpsert, U: u, V: v, W: w}})
}

func removeFriend(se *Engine, u, v int32) error {
	return se.ApplyUpdates([]core.Update{{Kind: core.OpEdgeRemove, U: u, V: v}})
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
