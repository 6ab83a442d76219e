package ssrq

import (
	"math"
	"math/rand"
	"testing"
)

func mkSocialEngine(t *testing.T, n int) (*Engine, *Dataset) {
	t.Helper()
	ds, err := Synthesize("gowalla", n, 5) // all presets locate most users
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ds
}

// TestAddFriendRawWeightRoundTrip: raw weights normalize on the way in and
// de-normalize consistently — the spliced super-strong friendship must
// surface as the top social neighbor with its normalized proximity.
func TestAddFriendRawWeightRoundTrip(t *testing.T) {
	e, ds := mkSocialEngine(t, 300)
	defer e.Close()
	const q, far = UserID(0), UserID(250)
	raw := ds.Norms().Social * 1e-7 // tiny normalized weight
	if err := e.AddFriend(q, far, raw); err != nil {
		t.Fatal(err)
	}
	knn, err := e.SocialKNN(q, 1)
	if err != nil || len(knn) != 1 || knn[0].ID != int32(far) {
		t.Fatalf("SocialKNN after AddFriend = %+v, want user %d first", knn, far)
	}
	if math.Abs(knn[0].P-1e-7) > 1e-12 {
		t.Fatalf("normalized proximity %v, want 1e-7", knn[0].P)
	}
	// Reweight up, then remove: the neighbor must drop back out of first place.
	if err := e.AddFriend(q, far, ds.Norms().Social*10); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveFriend(q, far); err != nil {
		t.Fatal(err)
	}
	if knn, err = e.SocialKNN(q, 1); err != nil {
		t.Fatal(err)
	}
	if len(knn) == 1 && knn[0].ID == int32(far) && knn[0].P > 5 {
		t.Fatalf("removed friendship still ranked first: %+v", knn)
	}
	st := e.SocialStats()
	if st.EdgeAdds != 1 || st.EdgeReweights != 1 || st.EdgeRemoves != 1 {
		t.Fatalf("social stats %+v", st)
	}
}

// TestAsyncFriendOpsAndFlush drives async edge batches through the
// root API: Flush is the read-your-writes barrier for both dimensions, and
// live stats reflect the mutated graph.
func TestAsyncFriendOpsAndFlush(t *testing.T) {
	e, _ := mkSocialEngine(t, 250)
	defer e.Close()
	before := e.DatasetStats()
	rng := rand.New(rand.NewSource(7))
	want := before.NumEdges
	for i := 0; i < 50; i++ {
		u, v := UserID(rng.Intn(250)), UserID(rng.Intn(250))
		if u == v {
			continue
		}
		if _, ok := edgeExists(e, u, v); ok {
			if err := removeFriendAsync(e, u, v); err != nil {
				t.Fatal(err)
			}
			want--
		} else {
			if err := addFriendAsync(e, u, v, 1000+rng.Float64()*1000); err != nil {
				t.Fatal(err)
			}
			want++
		}
		// Interleave a move so the queue carries both dimensions.
		if i%5 == 0 {
			if err := moveUserAsync(e, u, Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush() // flush per op: edgeExists must observe prior writes
	}
	after := e.DatasetStats()
	if after.NumEdges != want {
		t.Fatalf("live NumEdges = %d, want %d (was %d)", after.NumEdges, want, before.NumEdges)
	}
	us := e.UpdateStats()
	if us.SocialEpoch == 0 {
		t.Fatal("social epoch never advanced")
	}
	// Post-churn: AIS still agrees with brute force exactly.
	var q UserID = -1
	for id := 0; id < 250; id++ {
		if _, ok := e.UserLocation(UserID(id)); ok {
			q = UserID(id)
			break
		}
	}
	if q < 0 {
		t.Fatal("no located user")
	}
	res, err := e.TopKWith(AIS, q, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := e.TopKWith(BruteForce, q, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Entries {
		if math.Abs(res.Entries[i].F-wantRes.Entries[i].F) > 1e-9 {
			t.Fatalf("rank %d: AIS %v vs brute %v", i, res.Entries[i].F, wantRes.Entries[i].F)
		}
	}
}

// edgeExists probes the live social graph through SocialKNN-free plumbing:
// the engine's latest published graph.
func edgeExists(e *Engine, u, v UserID) (float64, bool) {
	return e.eng.LiveSocialGraph().EdgeWeight(u, v)
}

// TestApplyEdgeUpdatesBulk: one epoch for the whole batch; validation
// failures apply nothing.
func TestApplyEdgeUpdatesBulk(t *testing.T) {
	e, _ := mkSocialEngine(t, 200)
	defer e.Close()
	epoch0 := e.UpdateStats().SocialEpoch
	ups := []EdgeUpdate{
		{U: 1, V: 180, Weight: 500},
		{U: 2, V: 181, Weight: 700},
		{U: 3, V: 182, Remove: true},
	}
	if err := e.ApplyEdgeUpdates(ups); err != nil {
		t.Fatal(err)
	}
	if got := e.UpdateStats().SocialEpoch; got != epoch0+1 {
		t.Fatalf("social epoch %d, want %d (one epoch per batch)", got, epoch0+1)
	}
	// A batch with one bad item must reject atomically.
	bad := []EdgeUpdate{{U: 5, V: 183, Weight: 500}, {U: 9, V: 9, Weight: 1}}
	if err := e.ApplyEdgeUpdates(bad); err == nil {
		t.Fatal("self-loop batch accepted")
	}
	if _, ok := edgeExists(e, 5, 183); ok {
		t.Fatal("rejected batch partially applied")
	}
	if err := e.AddFriend(0, 1, -5); err == nil {
		t.Fatal("negative raw weight accepted")
	}
	if err := e.AddFriend(0, 1, math.NaN()); err == nil {
		t.Fatal("NaN raw weight accepted")
	}
}
