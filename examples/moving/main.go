// Moving users: continuous SSRQ over dynamic locations. Instead of
// re-querying after every change, the example registers a standing top-k
// subscription: the engine watches each published epoch, proves via the
// batch's touched-user set and Lemma-2 lower bounds when the result cannot
// have changed (skipped silently), and pushes incremental deltas — entries
// that entered the top-k, left it, or changed score — only otherwise.
// Bulk movement goes in as one batch (ApplyUpdatesAsync, then a barrier),
// which the engine applies as one copy-on-write epoch instead of paying
// one epoch per synchronous MoveUser call.
package main

import (
	"fmt"
	"log"

	"ssrq"
)

func main() {
	ds, err := ssrq.Synthesize("foursquare", 3000, 31)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	var me ssrq.UserID = -1
	for v := 0; v < ds.NumUsers(); v++ {
		if ds.Located(ssrq.UserID(v)) {
			me = ssrq.UserID(v)
			break
		}
	}

	// Stand up the subscription; it blocks until the initial top-5 is
	// evaluated, and the first delta is the full result.
	sub, err := eng.Subscribe(me, 5, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	home, _ := ds.Location(me)
	fmt.Printf("user %d at home (%.3f, %.3f):\n", me, home.X, home.Y)
	printDelta(sub.Delta())

	// Commute across the map. A rejected move (NaN / out-of-range user)
	// would silently leave the subscription serving stale results, so the
	// error must be checked.
	away := ssrq.Point{X: home.X + 0.4*ds.Norms().Spatial, Y: home.Y + 0.4*ds.Norms().Spatial}
	if err := eng.MoveUser(me, away); err != nil {
		log.Fatal(err)
	}
	eng.SyncSubscriptions()
	fmt.Printf("\nafter moving to (%.3f, %.3f):\n", away.X, away.Y)
	printDelta(sub.Delta())

	// Friends keep moving too — queue the whole wave as one batch and
	// flush once, rather than paying one published epoch per synchronous
	// MoveUser.
	var wave []ssrq.Update
	for v := 0; v < ds.NumUsers() && len(wave) < 500; v++ {
		id := ssrq.UserID(v)
		if p, ok := ds.Location(id); ok && id != me {
			wave = append(wave, ssrq.Update{ID: id, To: ssrq.Point{X: p.X * 0.95, Y: p.Y * 0.95}})
		}
	}
	if err := eng.ApplyUpdatesAsync(wave); err != nil {
		log.Fatal(err)
	}
	eng.SyncSubscriptions() // flush the queue + subscription barrier
	fmt.Printf("\nafter %d other users moved:\n", len(wave))
	printDelta(sub.Delta())

	// Sanity: the standing result still matches a from-scratch brute-force
	// query after all updates.
	final := sub.Result()
	want, err := eng.TopKWith(ssrq.BruteForce, me, 5, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	if len(final) != len(want.Entries) {
		log.Fatalf("subscription has %d entries, brute force %d", len(final), len(want.Entries))
	}
	for i := range final {
		if final[i].F != want.Entries[i].F {
			log.Fatalf("subscription drifted from brute force at rank %d", i)
		}
	}
	st := eng.SubscriptionStats()
	fmt.Printf("\nsubscription verified against brute force ✓ (%d evals, %d skips)\n", st.Evals, st.Skips)
}

// printDelta shows one incremental update the way an SSE consumer would
// render it.
func printDelta(d ssrq.SubscriptionDelta) {
	if d.Empty() {
		fmt.Println("  (no change — epoch proven unable to affect the top-k)")
		return
	}
	for _, e := range d.Added {
		fmt.Printf("  + user %-6d f=%.4f (social %.4f, spatial %.4f)\n", e.ID, e.F, e.P, e.D)
	}
	for _, e := range d.Rescored {
		fmt.Printf("  ~ user %-6d f=%.4f (social %.4f, spatial %.4f)\n", e.ID, e.F, e.P, e.D)
	}
	for _, id := range d.Removed {
		fmt.Printf("  - user %d left the top-k\n", id)
	}
}
