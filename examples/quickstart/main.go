// Quickstart: build a small geo-social dataset, ask one SSRQ, and inspect
// how the ranking mixes social and spatial proximity.
package main

import (
	"fmt"
	"log"

	"ssrq"
)

func main() {
	// A hand-built seven-user network. Weights are friendship strengths
	// (smaller = stronger); locations are street coordinates in meters.
	edges := []ssrq.Edge{
		{U: 0, V: 1, Weight: 0.2}, // close friends
		{U: 0, V: 2, Weight: 0.9},
		{U: 1, V: 3, Weight: 0.3},
		{U: 2, V: 3, Weight: 0.4},
		{U: 3, V: 4, Weight: 0.2},
		{U: 4, V: 5, Weight: 0.7},
		{U: 2, V: 6, Weight: 0.5},
	}
	locations := map[ssrq.UserID]ssrq.Point{
		0: {X: 0, Y: 0}, // the query user
		1: {X: 900, Y: 100},
		2: {X: 150, Y: 120},
		3: {X: 400, Y: 350},
		4: {X: 120, Y: 80},
		5: {X: 60, Y: 40}, // spatially nearest, socially distant
		6: {X: 1000, Y: 900},
	}
	ds, err := ssrq.NewDataset("demo", 7, edges, locations)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, &ssrq.Options{GridS: 2, GridLevels: 1, NumLandmarks: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Balance social and spatial proximity.
	res, err := eng.TopK(0, 3, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-3 companions for user 0 (alpha = 0.5):")
	for i, e := range res.Entries {
		fmt.Printf("  %d. user %d   f=%.3f  (social %.3f, spatial %.3f)\n", i+1, e.ID, e.F, e.P, e.D)
	}

	// Contrast with the two one-domain rankings the paper's introduction
	// argues against.
	spatial, _ := eng.SpatialKNN(0, 3)
	social, _ := eng.SocialKNN(0, 3)
	fmt.Print("\npure spatial kNN: ")
	for _, e := range spatial {
		fmt.Printf("%d ", e.ID)
	}
	fmt.Print("\npure social kNN:  ")
	for _, e := range social {
		fmt.Printf("%d ", e.ID)
	}
	fmt.Println()
}
