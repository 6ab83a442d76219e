package ssrq

import (
	"errors"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ssrq/internal/core"
)

func TestNewDatasetExplicitWeights(t *testing.T) {
	edges := []Edge{{0, 1, 0.5}, {1, 2, 0.25}, {2, 3, 0.75}}
	locs := map[UserID]Point{0: {X: 0, Y: 0}, 1: {X: 10, Y: 0}, 2: {X: 0, Y: 10}, 3: {X: 10, Y: 10}}
	ds, err := NewDataset("tiny", 4, edges, locs)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumUsers() != 4 {
		t.Fatalf("NumUsers = %d", ds.NumUsers())
	}
	st := ds.Stats()
	if st.NumEdges != 3 || st.NumLocated != 4 {
		t.Fatalf("stats %+v", st)
	}
	if p, ok := ds.Location(1); !ok || math.Abs(p.X-10) > 1e-9 {
		t.Fatalf("Location(1) = %v, %v", p, ok)
	}
}

func TestNewDatasetDegreeProductWeights(t *testing.T) {
	// All-zero weights trigger the paper's degree-product rule.
	edges := []Edge{{0, 1, 0}, {0, 2, 0}, {1, 2, 0}}
	ds, err := NewDataset("auto", 3, edges, map[UserID]Point{0: {}, 1: {X: 1}, 2: {Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Stats().NumEdges != 3 {
		t.Fatal("edges lost")
	}
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset("x", 0, nil, nil); err == nil {
		t.Fatal("zero users accepted")
	}
	if _, err := NewDataset("x", 2, []Edge{{0, 5, 1}}, nil); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := NewDataset("x", 2, []Edge{{0, 1, -1}}, nil); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewDataset("x", 2, nil, map[UserID]Point{5: {}}); err == nil {
		t.Fatal("out-of-range location accepted")
	}
}

func TestSynthesizePresets(t *testing.T) {
	for _, preset := range []string{"gowalla", "foursquare", "twitter"} {
		ds, err := Synthesize(preset, 400, 7)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		if ds.NumUsers() != 400 {
			t.Fatalf("%s: %d users", preset, ds.NumUsers())
		}
	}
	if _, err := Synthesize("myspace", 400, 7); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestEngineTopKAgainstBruteForce(t *testing.T) {
	ds, err := Synthesize("gowalla", 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	var q UserID = -1
	for v := 0; v < ds.NumUsers(); v++ {
		if ds.Located(UserID(v)) {
			q = UserID(v)
			break
		}
	}
	res, err := eng.TopK(q, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.TopKWith(BruteForce, q, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != len(want.Entries) {
		t.Fatalf("sizes differ: %d vs %d", len(res.Entries), len(want.Entries))
	}
	for i := range res.Entries {
		if math.Abs(res.Entries[i].F-want.Entries[i].F) > 1e-9 {
			t.Fatalf("rank %d: f %v vs %v", i, res.Entries[i].F, want.Entries[i].F)
		}
	}
}

func TestEngineNilDataset(t *testing.T) {
	if _, err := NewEngine(nil, nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

// TestEngineOptionsRespected: non-default options through the public API, at
// one shard and at three — the engine has the requested shard count, every
// served algorithm equals brute force, and every other Algorithm value (the
// figure variants among them) is refused with an error naming it.
func TestEngineOptionsRespected(t *testing.T) {
	ds, _ := Synthesize("gowalla", 300, 3)
	var q UserID
	for v := 0; v < ds.NumUsers(); v++ {
		if ds.Located(UserID(v)) {
			q = UserID(v)
			break
		}
	}
	for _, shards := range []int{0, 3} {
		eng, err := NewEngine(ds, &Options{GridS: 5, GridLevels: 1, NumLandmarks: 3, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.NumShards(); got != max(1, shards) {
			t.Fatalf("shards=%d: NumShards = %d", shards, got)
		}
		want, err := eng.TopKWith(BruteForce, q, 5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for algo := SFA; algo <= BruteForce+1; algo++ {
			got, err := eng.TopKWith(algo, q, 5, 0.5)
			if !slices.Contains(Algorithms(), algo) {
				if err == nil || !strings.Contains(err.Error(), algo.String()) {
					t.Fatalf("shards=%d: unserved %v: err = %v, want a refusal naming it", shards, algo, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("shards=%d %v: %v", shards, algo, err)
			}
			for i := range want.Entries {
				if i >= len(got.Entries) || got.Entries[i].ID != want.Entries[i].ID {
					t.Fatalf("shards=%d %v: got %v, want %v", shards, algo, got.Entries, want.Entries)
				}
			}
		}
		eng.Close()
	}
}

// TestParseAlgorithm: the one name table both front ends use resolves the
// four served algorithms by core's names, ignoring case, lists them in enum
// order, and refuses every other name — SPA's and the figure variants'
// included — with a message listing the menu.
func TestParseAlgorithm(t *testing.T) {
	want := []Algorithm{SFA, TSA, AIS, BruteForce}
	if got := Algorithms(); !slices.Equal(got, want) {
		t.Fatalf("Algorithms() = %v, want %v", got, want)
	}
	for _, a := range want {
		for _, name := range []string{a.String(), strings.ToLower(a.String()), strings.ToUpper(a.String())} {
			if got, err := ParseAlgorithm(name); err != nil || got != a {
				t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, a)
			}
		}
	}
	for _, name := range []string{"SPA", "TSA-QC", "TSA-NL", "AIS-BID", "AIS-", "AIS-Cache", "SFA-CH", "SPA-CH", "TSA-CH", "", "QUANTUM"} {
		_, err := ParseAlgorithm(name)
		if err == nil || !strings.Contains(err.Error(), "unknown algorithm") || !strings.Contains(err.Error(), "SFA|TSA|AIS|Brute") {
			t.Fatalf("ParseAlgorithm(%q): err = %v, want an unknown-algorithm error listing the menu", name, err)
		}
	}
}

func TestMoveUserRawCoordinates(t *testing.T) {
	ds, _ := Synthesize("twitter", 300, 5) // all located
	eng, _ := NewEngine(ds, nil)
	q := UserID(0)
	target, _ := ds.Location(q)
	// Teleport user 42 onto the query user and verify it becomes the
	// nearest spatial neighbor. A rejected move would silently leave user
	// 42 where it was, so the error must be checked.
	if err := eng.MoveUser(42, target); err != nil {
		t.Fatal(err)
	}
	nbrs, err := eng.SpatialKNN(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 1 || nbrs[0].ID != 42 {
		t.Fatalf("nearest after move = %+v", nbrs)
	}
	if err := eng.RemoveUserLocation(42); err != nil {
		t.Fatal(err)
	}
	nbrs, _ = eng.SpatialKNN(q, 1)
	if len(nbrs) == 1 && nbrs[0].ID == 42 {
		t.Fatal("removed user still indexed")
	}
}

func TestKNNHelpers(t *testing.T) {
	ds, _ := Synthesize("twitter", 300, 9)
	eng, _ := NewEngine(ds, nil)
	q := UserID(1)
	sp, err := eng.SpatialKNN(q, 5)
	if err != nil || len(sp) != 5 {
		t.Fatalf("SpatialKNN: %v, %d", err, len(sp))
	}
	for i := 1; i < len(sp); i++ {
		if sp[i].D < sp[i-1].D {
			t.Fatal("spatial kNN unsorted")
		}
	}
	so, err := eng.SocialKNN(q, 5)
	if err != nil || len(so) != 5 {
		t.Fatalf("SocialKNN: %v, %d", err, len(so))
	}
	for i := 1; i < len(so); i++ {
		if so[i].P < so[i-1].P {
			t.Fatal("social kNN unsorted")
		}
	}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	ds, _ := Synthesize("gowalla", 200, 13)
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	ds2, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.NumUsers() != 200 || ds2.Stats().NumEdges != ds.Stats().NumEdges {
		t.Fatal("round trip lost data")
	}
	// Same query must yield the same ranking on both copies.
	e1, _ := NewEngine(ds, nil)
	e2, _ := NewEngine(ds2, nil)
	var q UserID = -1
	for v := 0; v < ds.NumUsers(); v++ {
		if ds.Located(UserID(v)) {
			q = UserID(v)
			break
		}
	}
	r1, err := e1.TopK(q, 5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.TopK(q, 5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Entries {
		if math.Abs(r1.Entries[i].F-r2.Entries[i].F) > 1e-9 {
			t.Fatalf("rank %d drifted after round trip", i)
		}
	}
}

// TestPrecomputeThenAISCache: the §5.4 pre-computation is a Fig. 11 variant
// of the single-index engine. Lists materialized ahead of the queries answer
// exactly what brute force does on the same dataset.
func TestPrecomputeThenAISCache(t *testing.T) {
	ds, _ := Synthesize("gowalla", 400, 17)
	eng, err := core.NewEngine(ds.ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.ResetCache(50)
	var users []UserID
	for v := 0; v < ds.NumUsers() && len(users) < 5; v++ {
		if ds.Located(UserID(v)) {
			users = append(users, UserID(v))
		}
	}
	eng.Precompute(users)
	prm := Params{K: 5, Alpha: 0.3}
	for _, q := range users {
		res, err := eng.Query(core.AISCache, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Query(BruteForce, q, prm)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Entries) != len(want.Entries) {
			t.Fatal("AISCache size mismatch")
		}
		for i := range want.Entries {
			if math.Abs(res.Entries[i].F-want.Entries[i].F) > 1e-9 {
				t.Fatalf("q=%d rank %d: AISCache f %v, brute %v", q, i, res.Entries[i].F, want.Entries[i].F)
			}
		}
	}
}

func TestAsyncMovesAndFlush(t *testing.T) {
	ds, _ := Synthesize("twitter", 300, 5) // all located
	eng, _ := NewEngine(ds, nil)
	defer eng.Close()
	q := UserID(0)
	target, _ := ds.Location(q)
	if err := moveUserAsync(eng, 42, target); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if p, ok := eng.UserLocation(42); !ok || math.Abs(p.X-target.X) > 1e-9 || math.Abs(p.Y-target.Y) > 1e-9 {
		t.Fatalf("flushed async move invisible: %v %v", p, ok)
	}
	nbrs, err := eng.SpatialKNN(q, 1)
	if err != nil || len(nbrs) != 1 || nbrs[0].ID != 42 {
		t.Fatalf("nearest after async move = %+v, %v", nbrs, err)
	}
	st := eng.UpdateStats()
	if st.Epoch == 0 || st.AppliedUpdates == 0 || st.PendingUpdates != 0 {
		t.Fatalf("update stats after flush: %+v", st)
	}
	if err := removeUserLocationAsync(eng, 42); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if _, ok := eng.UserLocation(42); ok {
		t.Fatal("async removal invisible after flush")
	}
}

func TestApplyUpdatesBulk(t *testing.T) {
	ds, _ := Synthesize("twitter", 200, 5)
	eng, _ := NewEngine(ds, nil)
	defer eng.Close()
	target, _ := ds.Location(0)
	before := eng.UpdateStats().Epoch
	ups := []Update{
		{ID: 10, To: target},
		{ID: 11, To: Point{X: target.X + 1, Y: target.Y}},
		{ID: 12, Remove: true},
	}
	if err := eng.ApplyUpdates(ups); err != nil {
		t.Fatal(err)
	}
	if got := eng.UpdateStats().Epoch; got != before+1 {
		t.Fatalf("bulk apply advanced epoch by %d, want 1", got-before)
	}
	if p, ok := eng.UserLocation(10); !ok || math.Abs(p.X-target.X) > 1e-9 {
		t.Fatalf("bulk move lost: %v %v", p, ok)
	}
	if _, ok := eng.UserLocation(12); ok {
		t.Fatal("bulk removal lost")
	}
	if eng.DatasetStats().NumLocated != ds.Stats().NumLocated-1 {
		t.Fatal("DatasetStats does not track the live epoch")
	}
}

func TestMoveUserRejectsNonFinite(t *testing.T) {
	ds, _ := Synthesize("twitter", 100, 5)
	eng, _ := NewEngine(ds, nil)
	defer eng.Close()
	for _, p := range []Point{
		{X: math.NaN(), Y: 0},
		{X: 0, Y: math.NaN()},
		{X: math.Inf(1), Y: 0},
		{X: 0, Y: math.Inf(-1)},
	} {
		if err := eng.MoveUser(3, p); err == nil {
			t.Fatalf("MoveUser accepted %v", p)
		}
		if err := moveUserAsync(eng, 3, p); err == nil {
			t.Fatalf("ApplyUpdatesAsync accepted %v", p)
		}
		if err := eng.ApplyUpdates([]Update{{ID: 3, To: p}}); err == nil {
			t.Fatalf("ApplyUpdates accepted %v", p)
		}
	}
	if err := eng.MoveUser(-1, Point{}); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := eng.MoveUser(100, Point{}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	// The user's position must be untouched by the rejected updates.
	want, _ := ds.Location(3)
	if got, ok := eng.UserLocation(3); !ok || got != want {
		t.Fatalf("rejected updates moved the user: %v, want %v", got, want)
	}
}

// TestShardedEngineRootAPI: Options.Shards is a shard count behind one root
// API — one shape of introspection at every count, identical results, working
// update routing.
func TestShardedEngineRootAPI(t *testing.T) {
	ds, err := Synthesize("gowalla", 500, 5)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewEngine(ds, &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	sharded, err := NewEngine(ds, &Options{Seed: 5, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	// The default is one shard, reported like any other count: one ShardStat
	// holding every located user, balanced by definition, nothing to prune.
	if st := one.ShardStats(); one.NumShards() != 1 || len(st) != 1 ||
		st[0].NumLocated != one.DatasetStats().NumLocated || one.Imbalance() != 1 {
		t.Fatalf("default engine: %d shards, stats %+v, imbalance %v", one.NumShards(), st, one.Imbalance())
	}
	if sharded.NumShards() != 4 || len(sharded.ShardStats()) != 4 {
		t.Fatalf("sharded engine reports %d shards, %d stats", sharded.NumShards(), len(sharded.ShardStats()))
	}

	var q UserID = -1
	for id := 0; id < ds.NumUsers(); id++ {
		if ds.Located(UserID(id)) {
			q = UserID(id)
			break
		}
	}
	want, err := one.TopK(q, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.TopK(q, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("S=4 %d entries, S=1 %d", len(got.Entries), len(want.Entries))
	}
	for i := range got.Entries {
		if got.Entries[i].ID != want.Entries[i].ID {
			t.Fatalf("rank %d: S=4 id=%d, S=1 id=%d", i, got.Entries[i].ID, want.Entries[i].ID)
		}
	}
	if fs := sharded.FanoutStats(); fs.Queries == 0 || fs.Fanouts == 0 {
		t.Fatalf("fan-out counters dead: %+v", fs)
	}
	if fs := one.FanoutStats(); fs.Queries != 1 || fs.ShardsQueried != 1 || fs.Fanouts != 0 || fs.ShardsPruned != 0 {
		t.Fatalf("one shard fanned out: %+v", fs)
	}

	// Raw-coordinate updates route through the sharded engine identically.
	if p, ok := sharded.UserLocation(q); !ok {
		t.Fatal("query user unlocated")
	} else if err := sharded.MoveUser(q, Point{X: p.X + 10, Y: p.Y + 10}); err != nil {
		t.Fatal(err)
	}
	if err := sharded.AddFriend(q, q+1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.TopK(q, 5, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.SpatialKNN(q, 5); err != nil {
		t.Fatal(err)
	}
	if got, err := sharded.SocialKNN(q, 3); err != nil || len(got) == 0 {
		t.Fatalf("SocialKNN: %v, %d entries", err, len(got))
	}
	st := sharded.DatasetStats()
	if st.NumLocated == 0 || st.NumEdges == 0 {
		t.Fatalf("live stats dead: %+v", st)
	}
}

// TestSpatialKNNErrorsKeepTheirCause: the root wraps the engine's error
// instead of rewriting every failure into "no known location", and both
// one-domain kNN calls refuse a bad user or k with an error, never a panic.
func TestSpatialKNNErrorsKeepTheirCause(t *testing.T) {
	ds, err := Synthesize("twitter", 100, 5) // all located
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.RemoveUserLocation(7); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		social bool // SocialKNN, whose errors are the root's own
		q      UserID
		k      int
		want   string
	}{
		{false, -1, 3, "out of range"},
		{false, 100, 3, "out of range"},
		{false, 7, 3, "no known location"},
		{false, 8, 0, "must be ≥ 1"},
		{false, 8, -1, "must be ≥ 1"},
		{true, -1, 3, "out of range"},
		{true, 100, 3, "out of range"},
		{true, 8, 0, "must be ≥ 1"},
		{true, 8, -1, "must be ≥ 1"},
	} {
		name, knn := "SpatialKNN", eng.SpatialKNN
		if tc.social {
			name, knn = "SocialKNN", eng.SocialKNN
		}
		_, err := knn(tc.q, tc.k)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "ssrq: ") {
			t.Fatalf("%s(%d, %d): %v, want an ssrq error naming %q", name, tc.q, tc.k, err, tc.want)
		}
		if !tc.social && errors.Unwrap(err) == nil {
			t.Fatalf("%s(%d, %d): %v does not wrap the engine's error", name, tc.q, tc.k, err)
		}
	}
	if nbrs, err := eng.SpatialKNN(8, 3); err != nil || len(nbrs) != 3 {
		t.Fatalf("SpatialKNN(8): %v %v", nbrs, err)
	}
}

func TestSubscribeRootAPI(t *testing.T) {
	ds, err := Synthesize("twitter", 300, 7) // all located
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts *Options
	}{
		// Names pinned by the tier-1 floor list: "monolithic" is one shard.
		{"monolithic", nil},
		{"sharded", &Options{Shards: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(ds, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			if _, err := eng.Subscribe(-1, 5, 0.3); err == nil {
				t.Fatal("negative user accepted")
			}
			if _, err := eng.Subscribe(0, 5, 1.5); err == nil {
				t.Fatal("alpha out of (0,1) accepted")
			}

			const q, k = 0, 5
			sb, err := eng.Subscribe(q, k, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			defer sb.Close()
			want, err := eng.TopK(q, k, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			got := sb.Result()
			if len(got) != len(want.Entries) {
				t.Fatalf("initial result %d entries, want %d", len(got), len(want.Entries))
			}
			for i := range got {
				if got[i].ID != want.Entries[i].ID || got[i].F != want.Entries[i].F {
					t.Fatalf("rank %d: subscription %+v, query %+v", i, got[i], want.Entries[i])
				}
			}

			// Raw-coordinate async moves must flow through to the standing
			// query after the subscription barrier.
			far, ok := eng.UserLocation(want.Entries[k-1].ID)
			if !ok {
				t.Fatal("ranked user unlocated")
			}
			if err := moveUserAsync(eng, q, Point{X: far.X + 5, Y: far.Y + 5}); err != nil {
				t.Fatal(err)
			}
			eng.SyncSubscriptions()
			want, err = eng.TopK(q, k, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			got = sb.Result()
			if len(got) != len(want.Entries) {
				t.Fatalf("post-move result %d entries, want %d", len(got), len(want.Entries))
			}
			for i := range got {
				if got[i].ID != want.Entries[i].ID {
					t.Fatalf("post-move rank %d: subscription id=%d, query id=%d", i, got[i].ID, want.Entries[i].ID)
				}
			}
			if st := eng.SubscriptionStats(); st.Active != 1 || st.Evals == 0 {
				t.Fatalf("subscription stats dead: %+v", st)
			}
		})
	}
}

func TestSubscribeAfterCloseRejected(t *testing.T) {
	ds, err := Synthesize("twitter", 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := eng.Subscribe(0, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	// Close must have terminated the subscription's notify stream (a
	// buffered change signal may still be pending ahead of the close).
	timeout := time.After(5 * time.Second)
	for {
		select {
		case _, open := <-sb.Notify():
			if !open {
				return
			}
		case <-timeout:
			t.Fatal("notify channel still open after engine Close")
		}
	}
}

// TestMovesLeaveDatasetLocations: an engine's grids read their points from
// the dataset's own slice, yet no move or unlocate writes through to it. At
// S = 1 and S = 4, after moves inside and across the map, locations of
// unlocated users and unlocates, Dataset.Location still returns every
// user's coordinates as of construction, bit for bit, and UserLocation
// returns the new ones.
func TestMovesLeaveDatasetLocations(t *testing.T) {
	ds, err := Synthesize("gowalla", 700, 9)
	if err != nil {
		t.Fatal(err)
	}
	type loc struct {
		p  Point
		ok bool
	}
	before := make([]loc, ds.NumUsers())
	for id := range before {
		p, ok := ds.Location(UserID(id))
		before[id] = loc{p, ok}
	}
	for _, shards := range []int{1, 4} {
		eng, err := NewEngine(ds, &Options{Seed: 9, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// A move lands a step from another located user, so most cross
		// leaves and, at S = 4, shards; every third one goes in the batch,
		// the rest are one epoch each.
		want := make(map[UserID]loc)
		var batch []Update
		for id := UserID(0); int(id) < len(before); id += 7 {
			src := before[(int(id)*13+5)%len(before)]
			if !src.ok {
				continue
			}
			to := Point{X: src.p.X + 0.25, Y: src.p.Y - 0.25}
			want[id] = loc{to, true}
			if id%3 == 0 {
				batch = append(batch, Update{ID: id, To: to})
			} else if err := eng.MoveUser(id, to); err != nil {
				t.Fatal(err)
			}
		}
		for id := UserID(2); int(id) < len(before); id += 11 {
			if _, moved := want[id]; !moved {
				want[id] = loc{}
				batch = append(batch, Update{ID: id, Remove: true})
			}
		}
		if err := eng.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		relocated, unlocated := 0, 0
		for id := range before {
			u := UserID(id)
			if p, ok := ds.Location(u); ok != before[id].ok || math.Float64bits(p.X) != math.Float64bits(before[id].p.X) || math.Float64bits(p.Y) != math.Float64bits(before[id].p.Y) {
				t.Fatalf("S=%d: Dataset.Location(%d) = %v %v after moves, was %v %v", shards, id, p, ok, before[id].p, before[id].ok)
			}
			w, touched := want[u]
			if !touched {
				w = before[id]
			} else if !before[id].ok && w.ok {
				relocated++
			} else if before[id].ok && !w.ok {
				unlocated++
			}
			p, ok := eng.UserLocation(u)
			if ok != w.ok || ok && (math.Abs(p.X-w.p.X) > 1e-9*math.Abs(w.p.X)+1e-12 || math.Abs(p.Y-w.p.Y) > 1e-9*math.Abs(w.p.Y)+1e-12) {
				t.Fatalf("S=%d: UserLocation(%d) = %v %v, want %v %v", shards, id, p, ok, w.p, w.ok)
			}
		}
		if relocated == 0 || unlocated == 0 {
			t.Fatalf("S=%d: %d unlocated users located and %d located users unlocated; the churn is vacuous", shards, relocated, unlocated)
		}
		eng.Close()
	}
}
