package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// farCornerWorld is a geo-clustered dataset and the moves that drift three
// quarters of its located users into one far corner of it, with the engine
// options it runs under.
func farCornerWorld(t *testing.T) (*dataset.Dataset, core.Options, []graph.VertexID, []core.Update) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	edges, pts, located, err := gen.GeoSocial(gen.GeoSocialConfig{
		N: 300, M: 4, PLocal: 0.6, Cities: 6, LocatedFrac: 0.8,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildGraph(300, edges, gen.DegreeProductWeights(300, edges))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.New("farcorner", g, pts, located)
	if err != nil {
		t.Fatal(err)
	}
	users := locatedIDs(ds)
	rng = rand.New(rand.NewSource(711))
	b, _ := spatial.BoundingRect(ds.Pts, ds.Located)
	var moves []core.Update
	for i, u := range users {
		if i%4 == 0 {
			continue // stays home
		}
		moves = append(moves, core.Update{ID: int32(u), To: spatial.Point{
			X: b.MaxX - (0.02+0.08*rng.Float64())*b.Width(),
			Y: b.MaxY - (0.02+0.08*rng.Float64())*b.Height(),
		}})
	}
	opts := core.Options{GridS: 5, GridLevels: 2, NumLandmarks: 3, Seed: 71}
	return ds, opts, users, moves
}

// TestAISCacheFallbackExact: an AISCache scan that fills its interim result
// and then proves inconclusive must not leave that result behind for the
// fallback. The fallback re-derives every user from lower-bound keys, and a
// tight landmark bound rounds an ulp ABOVE the cached exact distance — so a
// fallback pruning against the scan's own kth score would drop exactly that
// member. The far-corner world packs most of each short cached list into one
// hotspot, which is what fills the scan.
func TestAISCacheFallbackExact(t *testing.T) {
	ds, opts, users, moves := farCornerWorld(t)
	mono, err := core.NewEngine(ds, opts)
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
		assertExactMatch(t, fmt.Sprintf("AIS-Cache q=%d", q), got.Entries, want.Entries)
	}
	if fellBack == 0 {
		t.Fatal("fixture: no query fell back")
	}
}
