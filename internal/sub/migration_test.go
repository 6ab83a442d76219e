package sub_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ssrq/internal/core"
	"ssrq/internal/gen"
	"ssrq/internal/shard"
	"ssrq/internal/spatial"
	"ssrq/internal/sub"
)

// TestMigrationDriftSkipsAndReplaysExactly is the subscription fixture at
// serving scale: the gowalla substitute at 1 500 users, one standing AIS
// query (k=10, α=0.3) for every located user that does not move (702), and
// the first eighth of the located users (100) drifting toward a hotspot
// under gen.Migration for 60 flushed rounds of 64 moves, at one and at
// eight shards. Movers and subscribers are disjoint: a moving subscriber is
// dirty by definition, and the fixture exists to exercise the Lemma-2 skip
// test.
//
// Every delta must replay into a client-side view that equals a
// from-scratch query: a rotating window of 16 subscribers per round, and
// all of them, with Result, at the end. A wrongly skipped round serves a
// stale view and fails here. Under this drift most (subscriber × round)
// pairs cannot change, so the skip rate must stay above one half.
func TestMigrationDriftSkipsAndReplaysExactly(t *testing.T) {
	const seed = 42
	ds, err := gen.GowallaPreset.Dataset(1500, seed)
	if err != nil {
		t.Fatal(err)
	}
	located := locatedUsers(ds)
	movers := located[:len(located)/8]
	subscribers := located[len(movers):]
	if len(subscribers) > 1000 {
		subscribers = subscribers[:1000]
	}
	prm := core.Params{K: 10, Alpha: 0.3}
	const rounds, chunk = 60, 64

	for _, S := range []int{1, 8} {
		t.Run(fmt.Sprintf("S=%d", S), func(t *testing.T) {
			eng, err := shard.New(ds, S, core.Options{GridS: 10, GridLevels: 2, NumLandmarks: 8, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			e := sub.New(eng)
			defer e.Close()

			subs := make([]*sub.Subscription, len(subscribers))
			views := make([][]core.Entry, len(subscribers))
			seen := make([]uint64, len(subscribers))
			for i, q := range subscribers {
				if subs[i], err = e.SubscribeParams(int32(q), prm); err != nil {
					t.Fatal(err)
				}
				d := subs[i].Delta()
				views[i], seen[i] = applyDelta(t, nil, d), d.Round
			}
			base := e.Stats()

			rng := rand.New(rand.NewSource(seed + 77))
			b, _ := spatial.BoundingRect(ds.Pts, ds.Located)
			mig, err := gen.NewMigration(b, gen.MigrationConfig{Jitter: 0.06}, rng)
			if err != nil {
				t.Fatal(err)
			}
			deltas := 0
			for round := 0; round < rounds; round++ {
				for i := 0; i < chunk; i++ {
					id := int32(movers[rng.Intn(len(movers))])
					if cur, ok := eng.UserLocation(id); ok {
						if err := moveUserAsync(eng, id, mig.Next(cur)); err != nil {
							t.Fatal(err)
						}
					}
				}
				eng.Flush()
				e.Sync()
				for i, st := range subs {
					if d := st.Delta(); d.Round != seen[i] {
						views[i], seen[i] = applyDelta(t, views[i], d), d.Round
						deltas++
					}
				}
				for p := 0; p < 16; p++ {
					i := (round*16 + p) % len(subs)
					sameEntries(t, fmt.Sprintf("round %d: subscriber %d view vs oracle", round, int32(subscribers[i])),
						views[i], oracle(t, eng, int32(subscribers[i]), prm))
				}
			}

			for i, st := range subs {
				d := st.Delta()
				views[i] = applyDelta(t, views[i], d)
				label := fmt.Sprintf("final sweep: subscriber %d", int32(subscribers[i]))
				sameEntries(t, label+" view vs oracle", views[i], oracle(t, eng, int32(subscribers[i]), prm))
				sameEntries(t, label+" Result vs view", st.Result(), views[i])
			}

			stats := e.Stats()
			evals, skips := stats.Evals-base.Evals, stats.Skips-base.Skips
			if evals == 0 {
				t.Fatalf("no subscription evaluations ran: the delta pipeline is dead (%+v)", stats)
			}
			rate := float64(skips) / float64(evals+skips)
			t.Logf("%d subscribers, %d movers: %d evals, %d skips (skip rate %.3f), %d deltas",
				len(subs), len(movers), evals, skips, rate, deltas)
			if rate <= 0.5 {
				t.Fatalf("skip rate %.3f <= 0.5 under migration drift (%d evals, %d skips): the Lemma-2 bound test stopped pruning",
					rate, evals, skips)
			}
		})
	}
}
