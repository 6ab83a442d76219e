// Friend recommendation: a social-leaning SSRQ over a dense Twitter-like
// network. Recommends with the default algorithm (AIS) and compares the
// served algorithms' work on the same query.
package main

import (
	"fmt"
	"log"

	"ssrq"
)

func main() {
	ds, err := ssrq.Synthesize("twitter", 4000, 7)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Recommend with a social-heavy alpha: friends of friends who also
	// happen to be geographically reachable.
	me := ssrq.UserID(100)
	res, err := eng.TopK(me, 8, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("friend recommendations for user %d (alpha=0.7):\n", me)
	for i, e := range res.Entries {
		fmt.Printf("  %d. user %-6d f=%.4f (social %.4f, spatial %.4f)\n", i+1, e.ID, e.F, e.P, e.D)
	}

	// How much graph work does each algorithm spend on the same question?
	// At alpha = 0.7 TSA's social stream settles the answer early, while AIS,
	// the default, still expands the grid cells near the query that its
	// social bound has not yet ruled out.
	fmt.Println("\nwork comparison (same query):")
	for _, algo := range []ssrq.Algorithm{ssrq.SFA, ssrq.TSA, ssrq.AIS} {
		r, err := eng.TopKWith(algo, me, 8, 0.7)
		if err != nil {
			log.Fatal(err)
		}
		s := r.Stats
		fmt.Printf("  %-7v social pops=%-6d spatial pops=%-6d index pops=%-5d pop ratio=%.3f\n",
			algo, s.SocialPops, s.SpatialPops, s.IndexUserPops, s.PopRatio(ds.NumUsers()))
	}
}
