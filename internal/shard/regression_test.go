package shard

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// fellBackDataset builds a 5-user star around the query vertex 0, cut across
// two shards:
//
//	vertex  social dist from 0   location
//	1       1  (list rank 1)     at q's point        -> home shard
//	2       2  (list rank 2)     far corner          -> remote shard
//	3       9  (list rank 3)     at q's point        -> home shard
//	4       20 (beyond t=3)      far corner          -> remote shard
//
// With t=3 the AISCache list holds users 1–3. At k=2 the scan θ-terminates on
// its last entry; at k=4 it exhausts the list inconclusively (user 4 is
// beyond it) and falls back to AIS.
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

// TestFanoutFellBackPropagates: AIS-Cache is a Fig. 11 variant of the
// single-index engine. There, on the star fixture, the scan terminates at k=2
// and falls back at k=4, and both answers are exact. The routed engine over
// two shards — query and remote users split — refuses AIS-Cache by name and
// answers the same question with AIS.
func TestFanoutFellBackPropagates(t *testing.T) {
	ds := fellBackDataset(t)
	opts := core.Options{GridS: 4, GridLevels: 1, NumLandmarks: 3, Seed: 7}
	se, err := New(ds, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	mono, err := core.NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	mono.ResetCache(3)

	const q = graph.VertexID(0)
	home, remote := shardOfUser(se, 0), shardOfUser(se, 2)
	if home < 0 || remote < 0 || home == remote {
		t.Fatalf("partition did not separate query (shard %d) from remote user (shard %d)", home, remote)
	}
	for _, k := range []int{2, 4} {
		prm := core.Params{K: k, Alpha: 0.9}
		got, err := mono.Query(core.AISCache, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.FellBack != (k == 4) {
			t.Fatalf("k=%d: FellBack = %v; the fixture no longer separates the two cases", k, got.Stats.FellBack)
		}
		brute, err := mono.Query(core.BruteForce, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		sameEntries(t, fmt.Sprintf("AIS-Cache k=%d vs brute", k), got.Entries, brute.Entries)
		requireRefused(t, se, core.AISCache, q, prm)
		served, err := se.Query(core.AIS, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		sameEntries(t, fmt.Sprintf("sharded AIS k=%d vs single-index AIS-Cache", k), served.Entries, got.Entries)
	}
}

// TestFanoutCountersCountOnlySuccess: FanoutStats counters must move only
// when a query succeeds end-to-end. The fan-out used to bump queries and
// shardsQueried before a shard could refuse, and counted an errored shard as
// queried. Here a refused (unserved) algorithm must commit nothing, at social
// epoch 0 and after an edge op alike.
func TestFanoutCountersCountOnlySuccess(t *testing.T) {
	ds := clusteredDataset(t, 150, 19)
	opts := core.Options{GridS: 3, GridLevels: 2, NumLandmarks: 3, Seed: 19}
	se, err := New(ds, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	users := locatedUsers(ds)
	q := users[0]
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

	// Social epoch 0: one successful query commits exactly one query over a
	// view of all three shards; a refusal commits nothing.
	fs0 := se.FanoutStats()
	if _, err := se.Query(core.TSA, q, prm); err != nil {
		t.Fatal(err)
	}
	fs1 := se.FanoutStats()
	if d := diff(fs0, fs1); d.Queries != 1 || d.Fanouts != 1 || d.ShardsQueried != 3 || d.ShardsPruned != 0 {
		t.Fatalf("successful query committed %+v, want 1 query / 1 fanout / 3 shards queried", d)
	}
	requireRefused(t, se, core.TSAQC, q, prm)
	if d := diff(fs1, se.FanoutStats()); d != (FanoutStats{}) {
		t.Fatalf("refusal still committed counters: %+v", d)
	}

	// Past social epoch 0 the refusal is the same, and again invisible to
	// the counters.
	nbrs, _ := se.LiveSocialGraph().Neighbors(q)
	if len(nbrs) == 0 {
		t.Fatal("query user has no neighbors to remove")
	}
	if err := removeFriend(se, int32(q), nbrs[0]); err != nil {
		t.Fatal(err)
	}
	requireRefused(t, se, core.TSAQC, q, prm)
	if d := diff(fs1, se.FanoutStats()); d != (FanoutStats{}) {
		t.Fatalf("repeated refusal still committed counters: %+v", d)
	}
}

// TestAISCacheFallbackExactUnderFanout: an AISCache scan that fills its
// interim result and then proves inconclusive must not leave that result
// behind for the fallback. The fallback re-derives every user from
// lower-bound keys, and a tight landmark bound rounds an ulp ABOVE the cached
// exact distance — so a fallback pruning against the scan's own kth score
// would drop exactly that member (the bug the old fan-out's shared threshold
// had). AIS-Cache runs on the single-index engine; the far-corner world packs
// most of each short cached list into one hotspot, which is what fills the
// scan.
func TestAISCacheFallbackExactUnderFanout(t *testing.T) {
	ds, users, moves := farCornerWorld(t)
	mono, err := core.NewEngine(ds, farCornerOptions)
	if err != nil {
		t.Fatal(err)
	}
	if err := mono.ApplyUpdates(moves); err != nil {
		t.Fatal(err)
	}
	mono.ResetCache(20)
	prm := core.Params{K: 10, Alpha: 0.5}
	fellBack := 0
	for _, q := range users {
		want, err := mono.Query(core.BruteForce, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mono.Query(core.AISCache, q, prm)
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

// TestQueryExactAcrossSocialEpochStraddle: the substrate publishes an edge
// batch by syncing its shards one at a time, so shard snapshots at mixed
// social epochs exist — and one search over such a mix would pair one epoch's
// graph with another epoch's cell summaries. An upsert that makes a new
// friend of q's the best-ranked user is parked at the writer's publish hook,
// every shard already synced to the new epoch but the view not yet stored:
// a query there must be brute force on the old graph, and once the writer is
// released, brute force on the new one. SPA and the figure
// variants among the subtests (TSA-QC, AIS-Cache) are not served: the engine
// must refuse them by name.
func TestQueryExactAcrossSocialEpochStraddle(t *testing.T) {
	prm := core.Params{K: 8, Alpha: 0.9}
	for _, algo := range []core.Algorithm{core.SFA, core.SPA, core.TSA, core.TSAQC,
		core.AIS, core.AISCache, core.BruteForce} {
		t.Run(algo.String(), func(t *testing.T) {
			ds := clusteredDataset(t, 400, 53)
			se, err := New(ds, 4, core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 53})
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			users := locatedUsers(ds)
			q := users[0]
			if !slices.Contains(Served, algo) {
				requireRefused(t, se, algo, q, prm)
				return
			}
			before, err := se.Query(core.BruteForce, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			// The new friend: the spatially nearest user outside the answer.
			held := before.IDSet()
			qpt, _ := se.UserLocation(int32(q))
			u, best := int32(-1), math.Inf(1)
			for _, v := range users {
				p, _ := se.UserLocation(int32(v))
				if d := p.Dist(qpt); v != q && !held[int32(v)] && d < best {
					u, best = int32(v), d
				}
			}

			fired := false
			// The writer is addFriend, on this goroutine, holding the writer
			// lock: the hook reports with Error, since a Fatal here would leave
			// the lock held for the deferred Close.
			se.testSeam = func() {
				fired = true
				if se.shards[1].Snapshot().SocialEpoch() == (*se.view.Load())[1].SocialEpoch() {
					t.Error("fixture: the shards had not synced to the new social epoch")
				}
				got, err := se.Query(algo, q, prm)
				if err != nil || !entriesEqual(got.Entries, before.Entries) {
					t.Errorf("parked %v: %v\n got:  %+v\n want: %+v", algo, err, got, before.Entries)
				}
			}
			if err := addFriend(se, int32(q), u, 1e-6); err != nil {
				t.Fatal(err)
			}
			if !fired {
				t.Fatal("seam never fired")
			}
			want, err := se.Query(core.BruteForce, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			if !want.IDSet()[u] {
				t.Fatalf("fixture: the upsert did not bring user %d into the answer", u)
			}
			got, err := se.Query(algo, q, prm)
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, "released "+algo.String(), got.Entries, want.Entries)
		})
	}
}

// TestStatsReadThePublishedView: the stats are the published view's numbers.
// A batch mixing a cross-shard move with an edge op is parked at the writer's
// publish hook, every shard index already applied but the view not yet
// stored: UpdateStats and ShardStats must still read the construction view —
// no epoch, no social epoch, no applied batch. Released, the batch is one
// epoch on each of the four shards at one social epoch, one applied batch of
// two ops, routed to the move's two shards.
func TestStatsReadThePublishedView(t *testing.T) {
	ds := clusteredDataset(t, 300, 29)
	se, err := New(ds, 4, core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 4, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	se.rebalanceThreshold = -1
	u, w := crossShardPair(t, se, locatedUsers(ds))
	dst, _ := se.UserLocation(w)

	fired := false
	// The writer holds the writer lock here: report with Error, not Fatal.
	se.testSeam = func() {
		fired = true
		if st := se.UpdateStats(); st.Epoch != 0 || st.SocialEpoch != 0 || st.AppliedBatches != 0 || st.AppliedUpdates != 0 {
			t.Errorf("parked batch: UpdateStats %+v, want the construction view's zeros", st)
		}
		for _, sh := range se.ShardStats() {
			if sh.Epoch != 0 || sh.SocialEpoch != 0 || sh.AppliedBatches != 0 {
				t.Errorf("parked batch: shard %d reads epoch %d, social epoch %d, %d batches; want zeros",
					sh.Shard, sh.Epoch, sh.SocialEpoch, sh.AppliedBatches)
			}
		}
	}
	batch := []core.Update{{ID: u, To: dst}, {Kind: core.OpEdgeUpsert, U: u, V: w, W: 0.123}}
	if err := se.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("seam never fired")
	}
	se.testSeam = nil

	if st := se.UpdateStats(); st.Epoch != 4 || st.SocialEpoch != 1 || st.AppliedBatches != 1 || st.AppliedUpdates != 2 {
		t.Fatalf("released: UpdateStats %+v, want 4 epochs, social epoch 1, 1 batch of 2 ops", st)
	}
	var routed []int
	for _, sh := range se.ShardStats() {
		if sh.AppliedBatches > 0 {
			routed = append(routed, sh.Shard)
		}
	}
	if len(routed) != 2 || !slices.Contains(routed, shardOfUser(se, w)) {
		t.Fatalf("released: shards %v took the batch, want the move's two shards", routed)
	}
}
