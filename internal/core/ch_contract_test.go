package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ssrq/internal/ch"
	"ssrq/internal/core"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// TestChurnInterleavedCHEquivalence is the *-CH contract as a property, on
// the single-index engine the Fig. 8 variants run on (a bare core.Engine with
// a hierarchy attached; the routed engine does not serve them). The hierarchy
// contracts the construction graph and is never maintained, so SFA-CH/SPA-CH/TSA-CH equal a
// from-scratch oracle while the social epoch is 0 — at construction and
// through random interleaved location churn (sync and async) mixed with edge
// ops that change nothing (removing an absent edge, re-upserting a present
// one at its weight). One effective upsert then ends it for good: all three
// return ErrStaleHierarchy naming both epochs, and undoing the edge restores
// the topology but not the epoch, which is what the contract is stated on.
func TestChurnInterleavedCHEquivalence(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	chAlgos := []core.Algorithm{core.SFACH, core.SPACH, core.TSACH}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7100 + trial)))
			n := 60 + rng.Intn(80)
			ds := clusteredDS(t, n, int64(40+trial))
			opts := core.Options{
				GridS: 3 + rng.Intn(3), GridLevels: 1 + rng.Intn(2),
				NumLandmarks: 2 + rng.Intn(5), Seed: int64(trial),
				UpdateMaxBatch: 1 + rng.Intn(32),
			}
			mono, err := core.NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			mono.AttachHierarchy(ch.Build(ds.G))
			engines := map[string]queryEngine{"single-index": syncRef{mono}}
			apply := func(up core.Update) {
				t.Helper()
				for _, e := range engines {
					if err := e.ApplyUpdates([]core.Update{up}); err != nil {
						t.Fatal(err)
					}
				}
			}

			model := seedEdgeModel(ds) // never changes: no edge op in the rounds is effective
			users := locatedIDs(ds)
			b, _ := spatial.BoundingRect(ds.Pts, ds.Located)
			for round := 0; round < 4; round++ {
				ops := 0 // round 0 checks the construction state
				if round > 0 {
					ops = 5 + rng.Intn(25)
				}
				for op := 0; op < ops; op++ {
					u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
					id := int32(users[rng.Intn(len(users))])
					to := spatial.Point{X: b.MinX + rng.Float64()*b.Width(), Y: b.MinY + rng.Float64()*b.Height()}
					switch kind := rng.Intn(6); {
					case kind == 0 && u != v && model[mkKey(u, v)] == 0:
						apply(core.Update{Kind: core.OpEdgeRemove, U: u, V: v})
					case kind == 1:
						if w, had := model[mkKey(u, v)]; had {
							apply(core.Update{Kind: core.OpEdgeUpsert, U: u, V: v, W: w})
						}
					case kind == 2:
						apply(core.Update{ID: id, Remove: true})
					case kind == 3: // random point: frequently crosses shards
						apply(core.Update{ID: id, To: to})
					default:
						for _, e := range engines {
							if err := moveUserAsync(e, id, to); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for _, e := range engines {
					e.Flush()
				}
				if m := mono.Snapshot().SocialEpoch(); m != 0 {
					t.Fatalf("round %d: social epoch %d after no-op edge ops", round, m)
				}
				for probe := 0; probe < 3; probe++ {
					q := users[rng.Intn(len(users))]
					if _, ok := userLocation(mono, int32(q)); !ok {
						continue
					}
					prm := core.Params{K: 1 + rng.Intn(8), Alpha: 0.05 + 0.9*rng.Float64()}
					want := oracleEntries(n, model, locator(mono), q, prm)
					for name, e := range engines {
						for _, algo := range chAlgos {
							got, err := e.Query(algo, q, prm)
							if err != nil {
								t.Fatalf("round %d %s %v (q=%d): %v", round, name, algo, q, err)
							}
							assertOracleMatch(t, fmt.Sprintf("round %d %s %v q=%d", round, name, algo, q), got.Entries, want)
						}
					}
				}
			}

			q := graph.VertexID(-1)
			for _, u := range users {
				if _, ok := userLocation(mono, int32(u)); ok {
					q = u
					break
				}
			}
			if q < 0 {
				t.Skip("churn unlocated every user")
			}
			u, v := int32(0), int32(1)
			for model[mkKey(u, v)] != 0 {
				v++
			}
			for i, up := range []core.Update{
				{Kind: core.OpEdgeUpsert, U: u, V: v, W: 0.4},
				{Kind: core.OpEdgeRemove, U: u, V: v},
			} {
				epoch := i + 1
				apply(up)
				for name, e := range engines {
					for _, algo := range chAlgos {
						_, err := e.Query(algo, q, core.Params{K: 3, Alpha: 0.5})
						if !errors.Is(err, core.ErrStaleHierarchy) {
							t.Fatalf("%s %v at social epoch %d: err = %v, want ErrStaleHierarchy", name, algo, epoch, err)
						}
						if !strings.Contains(err.Error(), "built at social epoch 0") ||
							!strings.Contains(err.Error(), fmt.Sprintf("snapshot at social epoch %d", epoch)) {
							t.Fatalf("%s %v: error does not name both epochs: %v", name, algo, err)
						}
					}
				}
			}
		})
	}
}
