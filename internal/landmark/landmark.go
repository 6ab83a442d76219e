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
	"runtime"
	"slices"
	"sync"

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
// their distance tables. seed drives the randomized strategies. The sweeps
// run on up to GOMAXPROCS goroutines, all joined before Select returns, and
// the result does not depend on how many there are.
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
	switch strategy {
	case Random:
		for _, v := range rng.Perm(n)[:m] {
			vertices = append(vertices, graph.VertexID(v))
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
			vertices = append(vertices, best[i].v)
		}
	case Farthest:
		seedV := graph.VertexID(rng.Intn(n))
		vertices, tables := farthestFirst(g, m, seedV)
		return newSet(n, vertices, tables), nil
	default:
		return nil, fmt.Errorf("landmark: unknown strategy %v", strategy)
	}
	return newSet(n, vertices, sweeps(g, vertices)), nil
}

// sweeps returns the distance table of every source, running up to
// GOMAXPROCS full sweeps at once.
func sweeps(g *graph.Graph, sources []graph.VertexID) [][]float64 {
	tables := make([][]float64, len(sources))
	workers := min(runtime.GOMAXPROCS(0), len(sources))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(sources); i += workers {
				tables[i] = g.DistancesFrom(sources[i])
			}
		}()
	}
	wg.Wait()
	return tables
}

// farthestFirst is Goldberg & Harrelson's selection: the first landmark is
// the vertex farthest from seedV, and each next one maximizes the distance
// to the nearest landmark chosen so far (argmaxDist). Each pick reads the
// table before it, so the m sweeps form a chain. With more than one core, a
// helper goroutine guesses the pick after next while next's sweep runs and
// sweeps from its guess; that table is used only when the real pick equals
// the guess, so the landmarks and tables are the sequential chain's, bit for
// bit, and only the time depends on the guess (DESIGN.md §7.4).
func farthestFirst(g *graph.Graph, m int, seedV graph.VertexID) ([]graph.VertexID, [][]float64) {
	seedT := g.DistancesFrom(seedV)
	// tables[0] is the seed sweep's: the guess reads it, the Set does not.
	tables := [][]float64{seedT}
	vertices := make([]graph.VertexID, 0, m)
	minDist := make([]float64, len(seedT))
	for v := range minDist {
		minDist[v] = graph.Infinity
	}
	choose := func(v graph.VertexID, t []float64) {
		vertices = append(vertices, v)
		tables = append(tables, t)
		for x, d := range t {
			if d < minDist[x] {
				minDist[x] = d
			}
		}
	}
	speculate := runtime.GOMAXPROCS(0) > 1
	next := farthestFrom(seedT, seedV)
	guess, guessT := graph.VertexID(-1), []float64(nil)
	for {
		t := guessT
		if next != guess {
			var helper sync.WaitGroup
			if speculate && len(vertices)+2 <= m {
				helper.Add(1)
				go func(known [][]float64, chosen []graph.VertexID, next graph.VertexID) {
					defer helper.Done()
					guess = guessAfter(known, minDist, chosen, next)
					guessT = g.DistancesFrom(guess)
				}(tables, vertices, next)
			}
			t = g.DistancesFrom(next)
			helper.Wait()
		}
		choose(next, t)
		if len(vertices) == m {
			return vertices, tables[1:]
		}
		next = argmaxDist(minDist, vertices)
	}
}

// guessAfter predicts the vertex argmaxDist will pick once next is chosen,
// before next's table exists: each unchosen v other than next scores
// min(minDist[v], min_j T_j[next] + T_j[v]) over the tables known so far,
// the landmark-detour upper bound standing in for v's unknown distance to
// next. Ties break by lower ID, as in argmaxDist.
func guessAfter(known [][]float64, minDist []float64, chosen []graph.VertexID, next graph.VertexID) graph.VertexID {
	best, bestD := graph.VertexID(-1), math.Inf(-1)
	for v, d := range minDist {
		for _, t := range known {
			if d <= bestD {
				break // d only falls: v cannot win
			}
			if ub := t[next] + t[v]; ub < d {
				d = ub
			}
		}
		if d > bestD && graph.VertexID(v) != next && !slices.Contains(chosen, graph.VertexID(v)) {
			best, bestD = graph.VertexID(v), d
		}
	}
	return best
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
