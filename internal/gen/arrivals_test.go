package gen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// edgeSet deduplicates with a set of all edges so far, kept as one
// neighbour list per vertex: the reference for arrivals. has scans the
// endpoint of lower degree, which holds the edge if either does.
type edgeSet struct {
	adj  [][]int32
	list []edge
}

// newEdgeSet returns an empty set over vertices 0..n-1.
func newEdgeSet(n int) *edgeSet {
	return &edgeSet{adj: make([][]int32, n)}
}

func (s *edgeSet) add(u, v int32) bool {
	if u == v || s.has(u, v) {
		return false
	}
	s.adj[u] = append(s.adj[u], v)
	s.adj[v] = append(s.adj[v], u)
	s.list = append(s.list, edge{u, v})
	return true
}

func (s *edgeSet) has(u, v int32) bool {
	if len(s.adj[u]) > len(s.adj[v]) {
		u, v = v, u
	}
	return slices.Contains(s.adj[u], v)
}

func (s *edgeSet) edges() []edge { return s.list }

// checkedEdges runs arrivals beside edgeSet, which answers every add and has
// from the set of all edges so far, as the hash set the growth models used
// before arrivals did, and so needs no assumption about the order edges
// arrive in.
// The first call on which the two disagree fails the test; when none does,
// the generator consumed its random stream exactly as it did with the hash
// set alone, so its output is the reference output.
type checkedEdges struct {
	t   *testing.T
	got *arrivals
	ref *edgeSet
}

func (c *checkedEdges) add(u, v int32) bool {
	got, want := c.got.add(u, v), c.ref.add(u, v)
	if got != want {
		c.t.Fatalf("add(%d, %d) = %v, set reference %v", u, v, got, want)
	}
	return got
}

func (c *checkedEdges) has(u, v int32) bool {
	got, want := c.got.has(u, v), c.ref.has(u, v)
	if got != want {
		c.t.Fatalf("has(%d, %d) = %v, set reference %v", u, v, got, want)
	}
	return got
}

func (c *checkedEdges) edges() []edge {
	got, want := c.got.edges(), c.ref.edges()
	if !slices.Equal(got, want) {
		c.t.Fatalf("edge list differs from the set reference (%d vs %d edges)", len(got), len(want))
	}
	return got
}

// TestArrivalsMatchHashSetReference drives every growth model through
// checkedEdges, over n ∈ {10, 57, 2 000, 30 000}, M ∈ {1, 5, 29} and eight
// seeds: the scan over the arriving vertex's own edges must answer every
// call as the set of all edges does and leave the identical edge list, and
// at M ≥ n the model must refuse.
func TestArrivalsMatchHashSetReference(t *testing.T) {
	models := []struct {
		name string
		run  func(n, m int, rng *rand.Rand, es edgeAdder) error
	}{
		{"geosocial", func(n, m int, rng *rand.Rand, es edgeAdder) error {
			_, _, _, err := geoSocial(GeoSocialConfig{N: n, M: m, Cities: 8, LocatedFrac: 0.5}, rng, es)
			return err
		}},
		{"urban", func(n, m int, rng *rand.Rand, es edgeAdder) error {
			_, _, _, _, err := urbanGeoSocial(UrbanConfig{N: n, M: m, Cities: 8, LocatedFrac: 0.85}, rng, es)
			return err
		}},
		{"homophily", func(n, m int, rng *rand.Rand, es edgeAdder) error {
			_, _, _, _, err := homophilyGeoSocial(HomophilyConfig{N: n, M: m, LocatedFrac: 0.7}, rng, es)
			return err
		}},
	}
	for _, model := range models {
		for _, n := range []int{10, 57, 2000, 30000} {
			for _, m := range []int{1, 5, 29} {
				t.Run(fmt.Sprintf("%s/n=%d/M=%d", model.name, n, m), func(t *testing.T) {
					t.Parallel()
					seeds := int64(8)
					if raceDetector && n*m > 100_000 {
						// The generators run on one goroutine, so the race
						// detector has nothing to find here, and it slows the
						// set reference eightfold; the full matrix runs
						// without it.
						seeds = 1
					}
					for seed := int64(1); seed <= seeds; seed++ {
						checked := &checkedEdges{t: t, got: newArrivals(n * m), ref: newEdgeSet(n)}
						err := model.run(n, m, rand.New(rand.NewSource(seed)), checked)
						if (err != nil) != (m >= n) {
							t.Fatalf("seed %d: error %v", seed, err)
						}
					}
				})
			}
		}
	}
}
