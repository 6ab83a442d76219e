// Package gen synthesizes the geo-social datasets the paper evaluates on.
// The original Gowalla / Foursquare / Twitter snapshots are not
// redistributable, so the reproduction generates structure-matched
// substitutes (see DESIGN.md §2): social graphs from standard growth models
// (preferential attachment, forest fire, Watts–Strogatz, Erdős–Rényi),
// degree-product edge weights exactly as §6 derives them, clustered
// locations with a controllable located fraction and friend-homophily, the
// Forest-Fire *sampling* of [45] used by the Fig. 14b scalability sweep, and
// the correlated-location synthesis of Fig. 14a.
//
// Every generator is deterministic given its seed.
package gen

import (
	"fmt"
	"math/rand"

	"ssrq/internal/graph"
)

// edge is an undirected edge under construction.
type edge struct {
	u, v int32
}

// edgeAdder deduplicates undirected edges while a generator builds its edge
// list: add records an edge and reports false for a self-loop or a
// duplicate, and edges returns the list in the order add accepted it.
type edgeAdder interface {
	add(u, v int32) bool
	has(u, v int32) bool
	edges() []edge
}

// edgeSet deduplicates with a hash set, for models that draw arbitrary pairs.
type edgeSet struct {
	seen map[uint64]bool
	list []edge
}

func newEdgeSet(capacity int) *edgeSet {
	return &edgeSet{seen: make(map[uint64]bool, capacity)}
}

func (s *edgeSet) key(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

func (s *edgeSet) add(u, v int32) bool {
	if u == v {
		return false
	}
	k := s.key(u, v)
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	s.list = append(s.list, edge{u, v})
	return true
}

func (s *edgeSet) has(u, v int32) bool { return s.seen[s.key(u, v)] }

func (s *edgeSet) edges() []edge { return s.list }

// arrivals deduplicates for the growth models, where vertices arrive in ID
// order and every edge is added as (u, v) while its larger endpoint v
// arrives. A duplicate can then only repeat one of v's own edges, which sit
// at the tail of the list, at most M of them: a short scan replaces the hash
// set (DESIGN.md §2). u == v still needs its own test, because a model that
// draws u from the degree-weighted endpoint list finds v there after v's
// first edge.
type arrivals struct {
	list []edge
}

// newArrivals reserves room for capacity edges (none when capacity < 1, as
// for a configuration the generator is about to refuse).
func newArrivals(capacity int) *arrivals {
	return &arrivals{list: make([]edge, 0, max(capacity, 0))}
}

func (a *arrivals) add(u, v int32) bool {
	if u == v || a.has(u, v) {
		return false
	}
	a.list = append(a.list, edge{u, v})
	return true
}

// has reports whether the arriving vertex v already has the edge (u, v).
func (a *arrivals) has(u, v int32) bool {
	for i := len(a.list) - 1; i >= 0 && a.list[i].v == v; i-- {
		if a.list[i].u == u {
			return true
		}
	}
	return false
}

func (a *arrivals) edges() []edge { return a.list }

// BarabasiAlbert grows an n-vertex preferential-attachment graph where each
// new vertex attaches to m existing vertices with probability proportional
// to degree (average degree ≈ 2m). The classic heavy-tailed social topology.
func BarabasiAlbert(n, m int, rng *rand.Rand) ([]edge, error) {
	return barabasiAlbert(n, m, rng, newArrivals(n*m))
}

// barabasiAlbert is BarabasiAlbert deduplicating through es.
func barabasiAlbert(n, m int, rng *rand.Rand, es edgeAdder) ([]edge, error) {
	if n < 2 || m < 1 || m >= n {
		return nil, fmt.Errorf("gen: BarabasiAlbert(n=%d, m=%d) invalid", n, m)
	}
	// Repeated-endpoint list: vertex v appears deg(v) times.
	endpoints := make([]int32, 0, 2*n*m)
	seed := m + 1
	if seed > n {
		seed = n
	}
	for v := 1; v < seed; v++ {
		for u := 0; u < v; u++ {
			if es.add(int32(u), int32(v)) {
				endpoints = append(endpoints, int32(u), int32(v))
			}
		}
	}
	for v := seed; v < n; v++ {
		attached := 0
		for guard := 0; attached < m && guard < 50*m; guard++ {
			u := endpoints[rng.Intn(len(endpoints))]
			if es.add(u, int32(v)) {
				endpoints = append(endpoints, u, int32(v))
				attached++
			}
		}
		// Degenerate fallback: attach to arbitrary distinct vertices.
		for u := int32(0); attached < m && u < int32(v); u++ {
			if es.add(u, int32(v)) {
				endpoints = append(endpoints, u, int32(v))
				attached++
			}
		}
	}
	return es.edges(), nil
}

// ForestFireGrowth grows a graph with Leskovec's forest-fire model: each new
// vertex picks a random ambassador, links to it, and the fire spreads from
// every burned vertex to a Geometric(1−p)-distributed number of unburned
// neighbors (mean p/(1−p)) — subcritical spread that yields communities and
// heavy tails without hub blow-up.
func ForestFireGrowth(n int, p float64, rng *rand.Rand) ([]edge, error) {
	if n < 2 || p < 0 || p >= 1 {
		return nil, fmt.Errorf("gen: ForestFireGrowth(n=%d, p=%v) invalid", n, p)
	}
	es := newEdgeSet(2 * n)
	adj := make([][]int32, n)
	link := func(u, v int32) {
		if es.add(u, v) {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	link(0, 1)
	visited := make([]int32, n) // epoch marks
	epoch := int32(0)
	for v := 2; v < n; v++ {
		epoch++
		ambassador := int32(rng.Intn(v))
		queue := []int32{ambassador}
		visited[ambassador] = epoch
		burned := 0
		const maxBurn = 64 // hard bound keeps generation linear-ish
		for len(queue) > 0 && burned < maxBurn {
			w := queue[0]
			queue = queue[1:]
			link(int32(v), w)
			burned++
			// Geometric number of fresh neighbors catch fire.
			spread := 0
			for rng.Float64() < p {
				spread++
			}
			for _, nb := range adj[w] {
				if spread == 0 {
					break
				}
				if visited[nb] == epoch {
					continue
				}
				visited[nb] = epoch
				queue = append(queue, nb)
				spread--
			}
		}
	}
	return es.list, nil
}

// WattsStrogatz builds an n-vertex ring lattice with k neighbors per side,
// rewiring each edge with probability beta — small-world, low variance.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) ([]edge, error) {
	if n < 4 || k < 1 || 2*k >= n || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: WattsStrogatz(n=%d, k=%d, beta=%v) invalid", n, k, beta)
	}
	es := newEdgeSet(n * k)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			u := int32(v)
			w := int32((v + j) % n)
			if rng.Float64() < beta {
				// Rewire to a uniform random non-duplicate target.
				for tries := 0; tries < 20; tries++ {
					cand := int32(rng.Intn(n))
					if cand != u && !es.has(u, cand) {
						w = cand
						break
					}
				}
			}
			es.add(u, w)
		}
	}
	return es.list, nil
}

// ErdosRenyi samples each of approximately n·avgDeg/2 uniform random edges.
func ErdosRenyi(n int, avgDeg float64, rng *rand.Rand) ([]edge, error) {
	if n < 2 || avgDeg <= 0 {
		return nil, fmt.Errorf("gen: ErdosRenyi(n=%d, avgDeg=%v) invalid", n, avgDeg)
	}
	target := int(float64(n) * avgDeg / 2)
	es := newEdgeSet(target)
	for guard := 0; len(es.list) < target && guard < 20*target; guard++ {
		es.add(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return es.list, nil
}

// DegreeProductWeights assigns the paper's §6 edge weights:
// w(v_i, v_j) = deg(v_i)·deg(v_j)/maxdeg² — the more friends a user has,
// the looser each connection. Weights are clamped to a small positive floor
// so the graph builder's positivity requirement always holds.
func DegreeProductWeights(n int, edges []edge) []float64 {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	maxDeg := 1
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	const floor = 1e-9
	ws := make([]float64, len(edges))
	denom := float64(maxDeg) * float64(maxDeg)
	for i, e := range edges {
		w := float64(deg[e.u]) * float64(deg[e.v]) / denom
		if w < floor {
			w = floor
		}
		ws[i] = w
	}
	return ws
}

// UniformWeights assigns every edge a weight drawn uniformly from (lo, hi].
func UniformWeights(edges []edge, lo, hi float64, rng *rand.Rand) []float64 {
	ws := make([]float64, len(edges))
	for i := range ws {
		ws[i] = lo + rng.Float64()*(hi-lo)
	}
	return ws
}

// BuildGraph assembles an immutable graph from generated edges and weights.
func BuildGraph(n int, edges []edge, weights []float64) (*graph.Graph, error) {
	if len(edges) != len(weights) {
		return nil, fmt.Errorf("gen: %d edges but %d weights", len(edges), len(weights))
	}
	b := graph.NewBuilder(n)
	for i, e := range edges {
		if err := b.AddEdge(e.u, e.v, weights[i]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
