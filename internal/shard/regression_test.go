package shard

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// fellBackDataset builds a 5-user star around the query vertex 0 whose
// geometry forces the AISCache list scan to terminate cleanly on the home
// shard while exhausting inconclusively (and falling back to AIS) on the
// remote shard:
//
//	vertex  social dist from 0   location
//	1       1  (list rank 1)     at q's point        -> home shard
//	2       2  (list rank 2)     far corner          -> remote shard
//	3       9  (list rank 3)     at q's point        -> home shard
//	4       20 (beyond t=3)      far corner          -> remote shard
//
// With k=2 and t=3 the home scan admits users 1 and 3 (user 2 is unlocated
// on the home snapshot, so its F is +Inf) and θ-terminates on the last list
// entry. The remote scan sees only user 2 located, never fills k with
// finite scores, and the θ = α·p(3) check ties the shared threshold exactly
// — strict semantics keep it searching — so the list exhausts with user 4
// still unseen: inconclusive, FellBack, AIS fallback. The remote shard's
// admission bound cannot prune it: its cell holds user 2 at social distance
// p(2), so every landmark's Lemma-2 bound is at most p(2) by the triangle
// inequality, far below the home kth score α·p(3).
func fellBackDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	b := graph.NewBuilder(5)
	for _, e := range []struct {
		v graph.VertexID
		w float64
	}{{1, 1}, {2, 2}, {3, 9}, {4, 20}} {
		if err := b.AddEdge(0, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	near := spatial.Point{X: 0.05, Y: 0.05}
	far := spatial.Point{X: 0.95, Y: 0.95}
	pts := []spatial.Point{near, near, far, near, far}
	located := []bool{true, true, true, true, true}
	ds, err := dataset.New("fellback", g, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestFanoutFellBackPropagates: when a non-home shard's AISCache falls back
// to AIS, the merged result must report FellBack — Stats.Add used to drop
// the flag of every added execution, so the fan-out reported fell_back=false
// whenever the home shard itself terminated cleanly.
func TestFanoutFellBackPropagates(t *testing.T) {
	ds := fellBackDataset(t)
	opts := core.Options{GridS: 4, GridLevels: 1, NumLandmarks: 3, CacheT: 3, Seed: 7}
	se, err := New(ds, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	const q = graph.VertexID(0)
	home := se.ShardOfUser(0)
	remote := se.ShardOfUser(2)
	if home < 0 || remote < 0 || home == remote {
		t.Fatalf("partition did not separate query (shard %d) from remote user (shard %d)", home, remote)
	}
	prm := core.Params{K: 2, Alpha: 0.9}

	// Establish the scenario shard by shard, replaying the fan-out's own
	// sequence: home first (seeding the shared threshold), then the remote
	// shard against it. The regression below is only meaningful while the
	// home scan terminates cleanly and the remote one falls back.
	hsn := se.shards[home].Snapshot()
	qpt := hsn.Grid().Point(0)
	sb := core.NewSharedBound(math.Inf(1))
	hres, err := se.shards[home].QueryOn(hsn, core.AISCache, q, qpt, sb, prm)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Stats.FellBack {
		t.Fatal("home shard fell back; scenario no longer isolates the merge bug")
	}
	rres, err := se.shards[remote].QueryOn(se.shards[remote].Snapshot(), core.AISCache, q, qpt, sb, prm)
	if err != nil {
		t.Fatal(err)
	}
	if !rres.Stats.FellBack {
		t.Fatal("remote shard did not fall back; scenario no longer exercises the merge")
	}

	// The actual regression: the merged stats must carry the remote flag.
	got, err := se.Query(core.AISCache, q, prm)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stats.FellBack {
		t.Fatal("fan-out merge dropped the remote shard's FellBack flag")
	}
	// And the merged answer is still the exact global one.
	want, err := se.Query(core.BruteForce, q, prm)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, "AIS-Cache with remote fallback", got.Entries, want.Entries)
}

// TestFanoutCountersCountOnlySuccess: FanoutStats counters must move only
// when a query succeeds end-to-end. The fan-out used to bump queries and
// shardsQueried before the home shard could refuse (a *-CH variant past
// social epoch 0), and counted an errored fan-out shard as queried.
func TestFanoutCountersCountOnlySuccess(t *testing.T) {
	ds := clusteredDataset(t, 150, 19)
	opts := core.Options{GridS: 3, GridLevels: 2, NumLandmarks: 3, Seed: 19, BuildCH: true}
	se, err := New(ds, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	users := locatedUsers(ds)
	q := users[0]
	// k exceeds any single shard's located count, so no shard ever fills its
	// interim result, the shared threshold stays +Inf, and every non-empty
	// shard is visited.
	prm := core.Params{K: 60, Alpha: 0.4}

	diff := func(a, b FanoutStats) FanoutStats {
		return FanoutStats{
			Queries:       b.Queries - a.Queries,
			Fanouts:       b.Fanouts - a.Fanouts,
			ShardsQueried: b.ShardsQueried - a.ShardsQueried,
			ShardsPruned:  b.ShardsPruned - a.ShardsPruned,
			ShardsEmpty:   b.ShardsEmpty - a.ShardsEmpty,
		}
	}

	// Social epoch 0: one successful query commits exactly one fan-out
	// visiting all three shards.
	fs0 := se.FanoutStats()
	if _, err := se.Query(core.TSACH, q, prm); err != nil {
		t.Fatal(err)
	}
	fs1 := se.FanoutStats()
	if d := diff(fs0, fs1); d.Queries != 1 || d.Fanouts != 1 || d.ShardsQueried != 3 || d.ShardsPruned != 0 {
		t.Fatalf("successful query committed %+v, want 1 query / 1 fanout / 3 shards queried", d)
	}

	// An effective edge op ends the hierarchy's validity on every shard at
	// once (one shared substrate, one social epoch).
	nbrs, _ := se.LiveSocialGraph().Neighbors(q)
	if len(nbrs) == 0 {
		t.Fatal("query user has no neighbors to remove")
	}
	if err := removeFriend(se, int32(q), nbrs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Query(core.TSACH, q, prm); !errors.Is(err, core.ErrStaleHierarchy) {
		t.Fatalf("TSA-CH past social epoch 0: err = %v, want ErrStaleHierarchy", err)
	}
	if d := diff(fs1, se.FanoutStats()); d != (FanoutStats{}) {
		t.Fatalf("home-shard refusal still committed counters: %+v", d)
	}

	// A second refusal must also commit nothing: every errored attempt stays
	// invisible to the counters.
	if _, err := se.Query(core.TSACH, q, prm); err == nil {
		t.Fatal("TSA-CH served again on stale hierarchy")
	}
	if d := diff(fs1, se.FanoutStats()); d != (FanoutStats{}) {
		t.Fatalf("repeated refusal still committed counters: %+v", d)
	}
}

// TestAISCacheFallbackExactUnderFanout: an AISCache scan that fills its
// interim result and then proves inconclusive used to leave that result's kth
// score behind in the fan-out's shared threshold. The fallback re-derives
// every user from lower-bound keys, and a tight landmark bound rounds an ulp
// ABOVE the cached exact distance — so against a threshold taken from the
// scan's own kth member the fallback pruned exactly that member, and the
// sharded engine (the only caller passing a threshold) answered inexactly at
// full quiescence. The hotspot fixture packs most of each short cached list
// into one shard, which is what fills the scan.
func TestAISCacheFallbackExactUnderFanout(t *testing.T) {
	se, users := farCornerSkewedEngine(t, 4)
	defer se.Close()
	prm := core.Params{K: 10, Alpha: 0.5}
	fellBack := 0
	for _, q := range users {
		want, err := se.Query(core.BruteForce, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.Query(core.AISCache, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.FellBack {
			fellBack++
		}
		sameEntries(t, fmt.Sprintf("AIS-Cache q=%d", q), got.Entries, want.Entries)
	}
	if fellBack == 0 {
		t.Fatal("fixture: no query fell back")
	}
}
