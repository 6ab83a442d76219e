// Companion search: the paper's motivating badoo.com scenario (§1). A user
// looking for a lunch companion sweeps the preference parameter α and sees
// how recommendations shift from "whoever is nearby" to "whoever is close in
// the social network" — and why neither extreme is what he/she wants.
package main

import (
	"fmt"
	"log"

	"ssrq"
)

func main() {
	// A synthetic city of 5,000 users in the Gowalla profile (clustered
	// districts, 54% of users sharing their location).
	ds, err := ssrq.Synthesize("gowalla", 5000, 2024)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Pick the first located user as the one searching for company.
	var me ssrq.UserID = -1
	for v := 0; v < ds.NumUsers(); v++ {
		if ds.Located(ssrq.UserID(v)) {
			me = ssrq.UserID(v)
			break
		}
	}
	loc, _ := ds.Location(me)
	fmt.Printf("user %d is at (%.3f, %.3f) and wants company for lunch\n\n", me, loc.X, loc.Y)

	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		res, err := eng.TopK(me, 5, alpha)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("alpha=%.1f (%s):\n", alpha, describe(alpha))
		for i, e := range res.Entries {
			fmt.Printf("  %d. user %-6d f=%.4f  social=%.4f spatial=%.4f\n", i+1, e.ID, e.F, e.P, e.D)
		}
		fmt.Println()
	}

	// The paper's Fig. 7b point: the joint ranking is a genuinely different
	// query from either one-domain search.
	res, _ := eng.TopK(me, 10, 0.5)
	spatialNN, _ := eng.SpatialKNN(me, 10)
	socialNN, _ := eng.SocialKNN(me, 10)
	fmt.Printf("overlap of SSRQ top-10 with spatial kNN: %d/10\n", overlap(res.Entries, spatialNN))
	fmt.Printf("overlap of SSRQ top-10 with social kNN:  %d/10\n", overlap(res.Entries, socialNN))
}

func describe(alpha float64) string {
	switch {
	case alpha < 0.3:
		return "mostly spatial: whoever is around"
	case alpha > 0.7:
		return "mostly social: closest friends-of-friends"
	default:
		return "balanced"
	}
}

func overlap(a, b []ssrq.Entry) int {
	set := map[ssrq.UserID]bool{}
	for _, e := range a {
		set[e.ID] = true
	}
	n := 0
	for _, e := range b {
		if set[e.ID] {
			n++
		}
	}
	return n
}
