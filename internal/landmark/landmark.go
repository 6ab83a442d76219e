// Package landmark implements the landmark (ALT) machinery of the paper:
// selection of M landmark vertices, pre-computed distance tables from every
// landmark to every vertex, and triangle-inequality lower/upper bounds on
// pairwise graph distances (§2.3, §5.1).
//
// The AIS index aggregates these per-vertex tables into per-cell social
// summaries; the TSA landmark variant prunes candidates with the pairwise
// lower bound; GraphDist's reverse A* uses the bound as its heuristic.
//
// Storage is vertex-major and paged: the M-vector of vertex v lives
// contiguously inside a fixed-size page, so the hot bound computations stay
// cache-friendly while the dynamic maintenance layer (dynamic.go) can
// copy-on-write individual pages per epoch instead of whole tables. A Set is
// immutable once published and safe for unlimited concurrent reads. Every
// table of every Set the maintenance layer commits holds exact distances on
// the graph it was committed for, which is what keeps the bounds below and
// Lemma-2 pruning admissible under edge churn.
package landmark

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ssrq/internal/graph"
)

// Paged vertex-major storage: the vector of vertex v occupies
// pages[v>>pageShift][(v&pageMask)*m : ...+m].
const (
	pageShift = 8
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Strategy selects which vertices become landmarks.
type Strategy int

const (
	// Farthest implements the selection of Goldberg & Harrelson [25]: start
	// from the vertex farthest from a random seed, then repeatedly add the
	// vertex maximizing the minimum distance to the chosen set. This is the
	// strategy the paper uses.
	Farthest Strategy = iota
	// HighestDegree picks the M highest-degree vertices (hub landmarks).
	HighestDegree
	// Random picks M distinct vertices uniformly.
	Random
)

func (s Strategy) String() string {
	switch s {
	case Farthest:
		return "farthest"
	case HighestDegree:
		return "degree"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Set holds M landmarks and their distance tables in paged vertex-major
// form; unreachable vertices hold +Inf. Set is immutable after construction
// and safe for concurrent reads.
type Set struct {
	vertices []graph.VertexID
	m        int
	n        int
	pages    [][]float64
}

// Select chooses m landmarks on g using the given strategy and computes
// their distance tables. seed drives the randomized strategies.
func Select(g *graph.Graph, m int, strategy Strategy, seed int64) (*Set, error) {
	n := g.NumVertices()
	if m <= 0 {
		return nil, fmt.Errorf("landmark: m = %d must be positive", m)
	}
	if m > n {
		return nil, fmt.Errorf("landmark: m = %d exceeds %d vertices", m, n)
	}
	rng := rand.New(rand.NewSource(seed))
	var vertices []graph.VertexID
	var tables [][]float64
	add := func(v graph.VertexID) {
		vertices = append(vertices, v)
		tables = append(tables, g.DistancesFrom(v))
	}
	switch strategy {
	case Random:
		perm := rng.Perm(n)
		for _, v := range perm[:m] {
			add(graph.VertexID(v))
		}
	case HighestDegree:
		type dv struct {
			deg int
			v   graph.VertexID
		}
		best := make([]dv, n)
		for v := 0; v < n; v++ {
			best[v] = dv{g.Degree(graph.VertexID(v)), graph.VertexID(v)}
		}
		// Selection of top-m by degree, ties by lower ID, without a full sort.
		for i := 0; i < m; i++ {
			top := i
			for j := i + 1; j < n; j++ {
				if best[j].deg > best[top].deg || (best[j].deg == best[top].deg && best[j].v < best[top].v) {
					top = j
				}
			}
			best[i], best[top] = best[top], best[i]
			add(best[i].v)
		}
	case Farthest:
		seedV := graph.VertexID(rng.Intn(n))
		first := farthestFrom(g.DistancesFrom(seedV), seedV)
		add(first)
		minDist := append([]float64(nil), tables[0]...)
		for len(vertices) < m {
			next := argmaxDist(minDist, vertices)
			add(next)
			t := tables[len(tables)-1]
			for v := range minDist {
				if t[v] < minDist[v] {
					minDist[v] = t[v]
				}
			}
		}
	default:
		return nil, fmt.Errorf("landmark: unknown strategy %v", strategy)
	}
	return newSet(n, vertices, tables), nil
}

// newSet packs landmark-major tables into the paged vertex-major layout.
func newSet(n int, vertices []graph.VertexID, tables [][]float64) *Set {
	s := &Set{vertices: vertices, m: len(vertices), n: n}
	s.pages = make([][]float64, numPages(n))
	for p := range s.pages {
		lo := p << pageShift
		hi := min(lo+pageSize, n)
		page := make([]float64, (hi-lo)*s.m)
		for v := lo; v < hi; v++ {
			base := (v - lo) * s.m
			for j, t := range tables {
				page[base+j] = t[v]
			}
		}
		s.pages[p] = page
	}
	return s
}

// numPages returns how many pages cover n per-vertex vectors.
func numPages(n int) int { return (n + pageSize - 1) / pageSize }

// vec returns the landmark-distance vector of v (aliases internal storage).
func (s *Set) vec(v graph.VertexID) []float64 {
	base := int(v&pageMask) * s.m
	return s.pages[v>>pageShift][base : base+s.m]
}

// farthestFrom returns the vertex with the largest finite distance in dist,
// falling back to the seed when everything else is unreachable.
func farthestFrom(dist []float64, seed graph.VertexID) graph.VertexID {
	best, bestD := seed, -1.0
	for v, d := range dist {
		if d != graph.Infinity && d > bestD {
			best, bestD = graph.VertexID(v), d
		}
	}
	return best
}

// argmaxDist picks the vertex maximizing minDist, preferring unreachable
// (+Inf) vertices so that each disconnected component eventually receives a
// landmark. Ties break by lower vertex ID; chosen landmarks are skipped.
func argmaxDist(minDist []float64, chosen []graph.VertexID) graph.VertexID {
	best, bestD := graph.VertexID(-1), math.Inf(-1)
	for v, d := range minDist {
		if d > bestD && !slices.Contains(chosen, graph.VertexID(v)) {
			best, bestD = graph.VertexID(v), d
		}
	}
	return best
}

// M returns the number of landmarks.
func (s *Set) M() int { return s.m }

// NumVertices returns the vertex count the tables cover.
func (s *Set) NumVertices() int { return s.n }

// Vertices returns the landmark vertex IDs (do not modify).
func (s *Set) Vertices() []graph.VertexID { return s.vertices }

// Dist returns the distance between the j-th landmark and vertex v
// (the paper's m_vj), +Inf when unreachable.
func (s *Set) Dist(j int, v graph.VertexID) float64 { return s.vec(v)[j] }

// Table returns the full distance table of the j-th landmark as a fresh
// slice.
func (s *Set) Table(j int) []float64 {
	t := make([]float64, s.n)
	for v := 0; v < s.n; v++ {
		t[v] = s.vec(graph.VertexID(v))[j]
	}
	return t
}

// VertexVector returns the landmark-distance vector of v as a fresh slice.
func (s *Set) VertexVector(v graph.VertexID) []float64 {
	return append([]float64(nil), s.vec(v)...)
}

// VertexRow returns the landmark-distance vector of v without copying: it
// aliases the set's storage and must not be modified — the form for index
// maintenance loops that read one vector per member.
func (s *Set) VertexRow(v graph.VertexID) []float64 { return s.vec(v) }

// AppendVertexVector appends the landmark-distance vector of v to dst and
// returns the extended slice — the allocation-free form of VertexVector for
// pooled query scratch.
func (s *Set) AppendVertexVector(dst []float64, v graph.VertexID) []float64 {
	return append(dst, s.vec(v)...)
}

// LowerBound returns the tightest triangle-inequality lower bound on the
// graph distance p(u, v): max_j |m_uj − m_vj|. When some landmark reaches
// exactly one of the two vertices they provably lie in different components
// and the bound is +Inf.
func (s *Set) LowerBound(u, v graph.VertexID) float64 {
	if u == v {
		return 0
	}
	return boundVecs(s.vec(u), s.vec(v))
}

// boundVecs computes max over j of |a_j − b_j| with the component-mismatch
// rule, which IEEE arithmetic supplies by itself: a landmark reaching exactly
// one of the two vertices gives |±Inf| = +Inf, which wins the max; one
// reaching neither gives Inf − Inf = NaN, which never compares greater and so
// carries no information.
func boundVecs(a, b []float64) float64 {
	b = b[:len(a)]
	best := 0.0
	for j, da := range a {
		if d := math.Abs(da - b[j]); d > best {
			best = d
		}
	}
	return best
}

// UpperBound returns min over j of (m_uj + m_vj), an upper bound on p(u, v)
// via the best landmark detour; +Inf when no landmark reaches both.
func (s *Set) UpperBound(u, v graph.VertexID) float64 {
	if u == v {
		return 0
	}
	vu, vv := s.vec(u), s.vec(v)
	best := graph.Infinity
	for j, du := range vu {
		if d := du + vv[j]; d < best {
			best = d
		}
	}
	return best
}

// HeuristicTo returns a consistent A* heuristic estimating the distance from
// any vertex to the fixed target (used by GraphDist's reverse search). The
// heuristic captures this Set's epoch: it stays valid for searches over the
// graph this Set was computed against.
func (s *Set) HeuristicTo(target graph.VertexID) graph.Heuristic {
	// Snapshot the target's landmark vector once.
	return s.HeuristicToVector(s.VertexVector(target))
}

// HeuristicToVector is HeuristicTo for callers that already hold the target's
// landmark vector (e.g. in pooled scratch): it avoids the per-target vector
// allocation. tv must have been produced by VertexVector/AppendVertexVector
// against this Set and is retained by the returned heuristic.
func (s *Set) HeuristicToVector(tv []float64) graph.Heuristic {
	return func(v graph.VertexID) float64 {
		return boundVecs(s.vec(v), tv)
	}
}
