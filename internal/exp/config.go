// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation (§6), each printing the same rows/series the paper
// reports and returning structured measurements for programmatic checks.
//
// Absolute numbers differ from the paper (different hardware, language and
// synthetic datasets — see DESIGN.md §2/§3); the harness exists to reproduce
// the *shape*: which method wins, by what rough factor, and how curves move
// with k, α, s, t, correlation and data size.
package exp

import (
	"fmt"
	"math/rand"

	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/graph"
)

// Defaults mirror Table 3.
var (
	DefaultK      = 30
	DefaultAlpha  = 0.3
	DefaultS      = 10
	KValues       = []int{10, 20, 30, 40, 50}
	AlphaValues   = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	SValues       = []int{5, 10, 15, 20, 25}
	DefaultM      = 8 // landmarks, the paper's fine-tuned value
	DefaultLevels = 2 // lowest two levels of a three-level hierarchy
)

// Scale sizes the synthetic datasets. The paper runs 196K (Gowalla), 1.88M
// (Foursquare), 124K (Twitter) users and 1000 queries per measurement; the
// scales below keep the same proportions at laptop-friendly sizes.
type Scale struct {
	Name        string
	GowallaN    int
	FoursquareN int
	TwitterN    int
	// Fig14bSizes are the data-size sweep points (paper: 0.6M/1.2M/1.8M).
	Fig14bSizes []int
	// TValues are the Fig. 11 cache sizes (paper: 1K..10K).
	TValues []int
	// NumQueries per measurement (paper: 1000).
	NumQueries int
}

// ScaleSmall is for tests and quick smoke runs.
var ScaleSmall = Scale{
	Name:        "small",
	GowallaN:    1500,
	FoursquareN: 3000,
	TwitterN:    1200,
	Fig14bSizes: []int{1000, 2000, 3000},
	TValues:     []int{25, 50, 100, 200, 400},
	NumQueries:  20,
}

// ScaleMedium is the default for the benchmark harness.
var ScaleMedium = Scale{
	Name:        "medium",
	GowallaN:    12000,
	FoursquareN: 30000,
	TwitterN:    8000,
	Fig14bSizes: []int{10000, 20000, 30000},
	TValues:     []int{100, 200, 400, 800, 1600},
	NumQueries:  100,
}

// ScaleLarge approaches paper proportions (slow; use for overnight runs).
var ScaleLarge = Scale{
	Name:        "large",
	GowallaN:    100000,
	FoursquareN: 250000,
	TwitterN:    62000,
	Fig14bSizes: []int{80000, 160000, 240000},
	TValues:     []int{1000, 2000, 4000, 6000, 8000, 10000},
	NumQueries:  200,
}

// ScaleByName resolves a -scale flag value.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "large":
		return ScaleLarge, nil
	default:
		return Scale{}, fmt.Errorf("exp: unknown scale %q (small|medium|large)", name)
	}
}

// QueryUsers draws n distinct located query users uniformly (the paper's
// "1,000 random SSRQ queries"); experiment workloads are fully determined by
// the suite seed.
func QueryUsers(ds *dataset.Dataset, n int, seed int64) []graph.VertexID {
	rng := rand.New(rand.NewSource(seed))
	var located []graph.VertexID
	for v := 0; v < ds.NumUsers(); v++ {
		if ds.Located[v] {
			located = append(located, graph.VertexID(v))
		}
	}
	if len(located) == 0 {
		return nil
	}
	if n >= len(located) {
		return located
	}
	rng.Shuffle(len(located), func(i, j int) { located[i], located[j] = located[j], located[i] })
	return located[:n]
}

// EngineOptions returns the standard engine configuration at granularity s.
func EngineOptions(s int, seed int64) core.Options {
	return core.Options{
		GridS:        s,
		GridLevels:   DefaultLevels,
		NumLandmarks: DefaultM,
		Seed:         seed,
	}
}
