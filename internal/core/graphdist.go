package core

import (
	"math"

	"ssrq/internal/graph"
	"ssrq/internal/landmark"
)

// graphDist is the §5.2 distance submodule of AIS (Algorithm 3): repeated
// social-distance evaluations from the fixed query vertex to varying targets,
// with both computation-sharing optimizations:
//
//   - forward-heap caching: the forward search is a single plain Dijkstra
//     whose heap and settled set persist across calls (plain, not A*,
//     precisely so the heap keys stay target-independent);
//   - distance caching: targets already settled by the forward search, or
//     lying on a previously reconstructed shortest path (table T), answer
//     without any search.
//
// An evaluation is a landmark A* from the target toward the forward search's
// settled set B — frozen for the duration, every member at exact distance ≤
// the forward head key β, every other vertex at ≥ β — and it stops as soon as
// the caller's question is answered: the exact distance, or the proof that
// the target cannot enter the interim result. It runs in rounds: a round may
// settle no more vertices than the forward search has so far, the forward
// search then grows by as many pops as the round spent (Algorithm 3's 1:1
// alternation, amortised), and a round that ran out of budget is restarted
// against the bigger ball. DESIGN.md §4 has the exactness argument.
type graphDist struct {
	g       *graph.Graph
	lm      *landmark.Set
	q       graph.VertexID
	fwd     *graph.DijkstraIterator
	revPool *graph.AStarPool
	hToQ    graph.Heuristic
	// Table T: pathDist[v] is p(v_q, v) for every v on a reconstructed path,
	// valid where pathGen[v] == gen; pathSet lists those v in insertion order.
	// Generation stamps make reset O(1), as in graph.DijkstraIterator.
	pathDist []float64
	pathGen  []uint32
	gen      uint32
	pathSet  []graph.VertexID
	// onSettle, when set, sees every vertex the forward search settles (AIS's
	// score-on-settle, DESIGN.md §4.12), one advance's worth at a time,
	// collected in settled.
	onSettle *aisRun
	settled  []graph.VertexID
	st       *Stats
	alpha    float64
	// bounded applies the §5.3 bound inside an evaluation: β floors the
	// reverse heuristic and f_k caps the search. Off (Fig. 10's AIS⁻) the
	// same search runs with β ≡ 0 and no cap.
	bounded bool
	// firstRound is a round's budget while the forward search is still
	// smaller than that: always firstRoundPops outside tests.
	firstRound int
}

// firstRoundPops keeps the rounds of a query's first evaluations from being
// one or two pops long. It is not a knob: pops per query are the same to
// three digits from 4 to 256 (EXPERIMENTS.md).
const firstRoundPops = 16

func newGraphDist(g *graph.Graph, lm *landmark.Set, q graph.VertexID, revPool *graph.AStarPool, st *Stats, alpha float64, bounded bool) *graphDist {
	gd := &graphDist{}
	gd.reset(g, lm, q, &graph.DijkstraIterator{}, revPool, lm.HeuristicTo(q), st, alpha, bounded, nil)
	return gd
}

// reset re-arms the submodule in place for a fresh query, reusing the path
// table's storage and the caller-provided (typically pooled) forward
// iterator. fwd is re-armed from q; hToQ must estimate distances to q against
// lm's epoch. onSettle (nil outside AIS) sees every forward settle, q's
// included.
func (gd *graphDist) reset(g *graph.Graph, lm *landmark.Set, q graph.VertexID,
	fwd *graph.DijkstraIterator, revPool *graph.AStarPool, hToQ graph.Heuristic, st *Stats, alpha float64, bounded bool,
	onSettle *aisRun) {
	fwd.Reset(g, q)
	gd.g = g
	gd.lm = lm
	gd.q = q
	gd.fwd = fwd
	gd.revPool = revPool
	gd.hToQ = hToQ
	if n := g.NumVertices(); len(gd.pathGen) < n {
		gd.pathDist = make([]float64, n)
		gd.pathGen = make([]uint32, n)
		gd.gen = 0
	}
	if gd.gen++; gd.gen == 0 { // wrapped: flush the stale stamps
		clear(gd.pathGen)
		gd.gen = 1
	}
	gd.pathSet = gd.pathSet[:0]
	gd.onSettle = onSettle
	gd.st = st
	gd.alpha = alpha
	gd.bounded = bounded
	gd.firstRound = firstRoundPops
	// Settle the source immediately so reverse searches can always meet a
	// non-empty forward tree.
	gd.advance(1)
}

// advance grants the shared forward search up to n more pops, then hands
// what they settled to onSettle in one batch: the hook's lookups of those
// vertices are independent of one another, so they overlap in memory instead
// of waiting behind the search's own.
func (gd *graphDist) advance(n int) {
	gd.settled = gd.settled[:0]
	for ; n > 0; n-- {
		v, _, ok := gd.fwd.Next()
		if !ok {
			break
		}
		gd.st.SocialPops++
		if gd.onSettle != nil {
			gd.settled = append(gd.settled, v)
		}
	}
	if gd.onSettle != nil {
		gd.onSettle.settle(gd.settled)
	}
}

// beta is the §5.3 bound: the key at the head of the shared forward search,
// lower-bounding p(v_q, v) for every vertex the forward search has not
// settled (+Inf once it has settled q's whole component).
func (gd *graphDist) beta() float64 {
	if key, ok := gd.fwd.HeadKey(); ok {
		return key
	}
	return graph.Infinity
}

// known returns the exact distance when it is available for free — from the
// forward settled set or the path table T.
func (gd *graphDist) known(v graph.VertexID) (float64, bool) {
	if d, ok := gd.fwd.SettledDist(v); ok {
		return d, true
	}
	if gd.pathGen[v] == gd.gen {
		return gd.pathDist[v], true
	}
	return 0, false
}

// record enters p(v_q, x) = p into table T.
func (gd *graphDist) record(x graph.VertexID, p float64) {
	if gd.pathGen[x] != gd.gen {
		gd.pathGen[x] = gd.gen
		gd.pathSet = append(gd.pathSet, x)
	}
	gd.pathDist[x] = p
}

// socialThreshold returns τ, the smallest social distance that keeps a
// candidate at spatial distance d out of an interim result whose kth value is
// fk: the smallest float with combine(alpha, τ, d) >= fk, +Inf when there is
// none. It is defined through combine itself, not algebra, so that "p ≥ τ"
// and the main loop's own `key >= r.Fk()` test are one decision, ties and
// rounding included. The algebraic solution lands within a few ulps of fk in
// f-space (many more in p-space when alpha is small), so it is bracketed by
// doubling steps and bisected; combine is monotone in p, which bounds both.
func socialThreshold(alpha, d, fk float64) float64 {
	hi := (fk - (1-alpha)*d) / alpha
	if math.IsInf(hi, 0) || math.IsNaN(hi) {
		return graph.Infinity // interim result not full yet (or nothing to solve for)
	}
	lo := hi
	for step := math.Abs(hi)*0x1p-52 + math.SmallestNonzeroFloat64; combine(alpha, hi, d) < fk; step *= 2 {
		hi += step
	}
	for step := math.Abs(lo)*0x1p-52 + math.SmallestNonzeroFloat64; combine(alpha, lo, d) >= fk; step *= 2 {
		lo -= step
	}
	for {
		mid := lo + (hi-lo)/2
		if !(lo < mid && mid < hi) {
			return hi
		}
		if combine(alpha, mid, d) >= fk {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// dist evaluates the social distance p(v_q, v) of a candidate at spatial
// distance d against the live kth value fk — Algorithm 3, stopped at the
// threshold instead of the truth. exact reports which answer p is: the exact
// distance, or (exact false) a threshold τ with p(v_q, v) ≥ τ and therefore
// f(v) ≥ fk, so the candidate can be discarded unevaluated.
func (gd *graphDist) dist(v graph.VertexID, d, fk float64) (p float64, exact bool) {
	gd.st.GraphDistCalls++
	if v == gd.q {
		return 0, true
	}
	if p, ok := gd.known(v); ok {
		return p, true
	}
	tau := graph.Infinity
	if gd.bounded {
		tau = socialThreshold(gd.alpha, d, fk)
	}
	// A realized landmark detour (q→landmark→v) seeds the best-known
	// distance μ, letting many reverse searches certify termination after a
	// handful of pops (an ALT-style strengthening of Algorithm 3). μ is the
	// length of a real path whichever round found it, so it carries over.
	mu := gd.lm.UpperBound(gd.q, v)
	for {
		beta := gd.beta()
		if math.IsInf(beta, 1) {
			// The query's component is fully settled and v is not in it.
			return graph.Infinity, true
		}
		if !gd.bounded {
			beta = 0
		}
		rev := gd.revPool.NewSearch(gd.g, v, gd.hToQ)
		var meet graph.VertexID
		var answered bool
		mu, meet, answered = rev.RunToBall(gd.fwd, beta, mu, tau, max(gd.firstRound, gd.fwd.Pops()))
		pops := rev.Pops()
		gd.st.SocialPops += pops
		gd.st.ReversePops += pops
		gd.advance(pops)
		if answered {
			if mu >= tau && !math.IsInf(tau, 1) {
				gd.st.BoundedStops++
				return tau, false
			}
			if meet >= 0 {
				// Distance caching: record the reverse portion of the
				// shortest path in T. (The forward portion is already covered
				// by the forward settled set.) By prefix optimality, every
				// vertex x on the path has p(v_q, x) = p − g_rev(x).
				for x := meet; x >= 0; x = rev.ParentOf(x) {
					if gx, ok := rev.LabelDist(x); ok {
						gd.record(x, mu-gx)
					}
				}
			}
			return mu, true
		}
		// Out of budget against a ball this small. The forward search has
		// just caught up (the ball at least doubled) and may have swallowed v
		// itself; if not, ask again.
		gd.st.GraphDistRestarts++
		if p, ok := gd.fwd.SettledDist(v); ok {
			return p, true
		}
	}
}

// freshBidirectional is the unshared evaluator of AIS-BID: a fresh
// bidirectional ALT search per target, exactly the [25] baseline of Fig. 10.
type freshBidirectional struct {
	g       *graph.Graph
	lm      *landmark.Set
	q       graph.VertexID
	hToQ    graph.Heuristic
	fwdPool *graph.AStarPool
	revPool *graph.AStarPool
	st      *Stats
}

func (fb *freshBidirectional) dist(v graph.VertexID) float64 {
	fb.st.GraphDistCalls++
	if v == fb.q {
		return 0
	}
	res := graph.BidirectionalDijkstra(fb.g, fb.q, v, fb.lm.HeuristicTo(v), fb.hToQ, fb.fwdPool, fb.revPool)
	fb.st.SocialPops += res.Pops
	return res.Dist
}
