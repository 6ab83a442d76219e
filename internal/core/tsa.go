package core

import (
	"math"

	"ssrq/internal/aggindex"
	"ssrq/internal/fof"
	"ssrq/internal/graph"
	"ssrq/internal/pqueue"
	"ssrq/internal/spatial"
)

// tsaConfig selects the TSA flavor (§4.2).
type tsaConfig struct {
	quickCombine bool // probe streams by weighted distance-growth rate
	prune        bool // landmark candidate pruning before phase 2
}

// candidateSet is TSA's Q: users encountered by the spatial search but not
// yet socially evaluated, ordered by Euclidean distance with lazy deletion.
type candidateSet struct {
	d    map[int32]float64
	heap pqueue.Heap[int32]
}

func newCandidateSet() *candidateSet {
	return &candidateSet{d: make(map[int32]float64)}
}

// reset empties the set in place, keeping the map's buckets and the heap's
// storage for reuse by the next query.
func (c *candidateSet) reset() {
	if c.d == nil {
		c.d = make(map[int32]float64)
	} else {
		clear(c.d)
	}
	c.heap.Reset()
}

func (c *candidateSet) Add(u int32, d float64) {
	if _, ok := c.d[u]; ok {
		return
	}
	c.d[u] = d
	c.heap.Push(d, int64(u), u)
}

func (c *candidateSet) Contains(u int32) bool { _, ok := c.d[u]; return ok }
func (c *candidateSet) D(u int32) float64     { return c.d[u] }
func (c *candidateSet) Remove(u int32)        { delete(c.d, u) }
func (c *candidateSet) Len() int              { return len(c.d) }

// MinD returns the smallest Euclidean distance among live candidates
// (the t′_d of Algorithm 1), +Inf when empty.
func (c *candidateSet) MinD() float64 {
	for c.heap.Len() > 0 {
		e := c.heap.Peek()
		if _, live := c.d[e.Value]; live {
			return e.Key
		}
		c.heap.Pop() // stale: removed earlier
	}
	return math.Inf(1)
}

// tsaRun is the mutable state of one TSA phase-1 execution. It exists so the
// stream-advance steps can be methods rather than closures: closures
// capturing the frontier state (t_p, t_d, the done flags) would force a heap
// allocation per query, while a local struct with methods stays on the
// caller's stack.
type tsaRun struct {
	sns    []*aggindex.Snapshot
	qpt    spatial.Point
	q      graph.VertexID
	alpha  float64
	filter uint64
	labels []uint64
	soc    *graph.DijkstraIterator
	nn     *spatial.NNIterator
	r      *topK
	cand   *candidateSet
	st     *Stats

	tp, td           float64
	socDone, spaDone bool
}

// excluded reports whether the query filter rejects user u. Excluded users
// still advance both frontiers (t_p/t_d bound *unseen* users regardless of
// labels) but never enter the interim result or the candidate set.
func (t *tsaRun) excluded(u int32) bool {
	if t.filter == 0 {
		return false
	}
	var lbl uint64
	if t.labels != nil {
		lbl = t.labels[u]
	}
	if lbl&t.filter == 0 {
		t.st.LabelSkips++
		return true
	}
	return false
}

func (t *tsaRun) advanceSocial() {
	v, p, ok := t.soc.Next()
	if !ok {
		t.socDone = true
		return
	}
	t.st.SocialPops++
	t.tp = p
	if v == t.q {
		return
	}
	// Algorithm 1 lines 7–8: a candidate reached by the social search is
	// now fully evaluated and must leave Q (filtered users never entered
	// it, and must not enter the result either).
	if t.excluded(v) {
		return
	}
	d := spatialDist(t.sns, t.qpt, v)
	t.r.Consider(Entry{ID: v, F: combine(t.alpha, p, d), P: p, D: d})
	t.cand.Remove(v)
}

func (t *tsaRun) advanceSpatial() {
	u, d, ok := t.nn.Next()
	if !ok {
		t.spaDone = true
		return
	}
	t.st.SpatialPops++
	t.td = d
	if u == t.q || t.soc.Settled(u) {
		return
	}
	if t.excluded(u) {
		return
	}
	t.cand.Add(u, d)
}

// theta bounds the f value of users unseen by both searches. A finished
// stream contributes +Inf: no further qualifying user can exist there.
func (t *tsaRun) theta() float64 {
	ctp, ctd := t.tp, t.td
	if t.socDone {
		ctp = math.Inf(1)
	}
	if t.spaDone {
		ctd = math.Inf(1)
	}
	return combine(t.alpha, ctp, ctd)
}

// runTSA is the Twofold Search Approach (Algorithm 1): a social and a
// spatial incremental search run concurrently, bounding unseen users by
// θ = α·t_p + (1−α)·t_d. Phase 2 resolves the partially-evaluated candidate
// set Q, by default continuing only the social search (continuing the NN
// search "would be a waste of computations").
func (e *Searcher) runTSA(sns []*aggindex.Snapshot, q graph.VertexID, qpt spatial.Point, prm Params, st *Stats, p *queryPools, cfg tsaConfig) []Entry {
	soc := sns[0].SocialGraph()
	p.soc.Reset(soc, q)
	p.nn.Reset(qpt, p.gridsOf(sns)...)
	p.cand.reset()
	r := p.top.reset(prm.K)
	t := tsaRun{
		sns: sns, qpt: qpt, q: q, alpha: prm.Alpha,
		filter: prm.Filter, labels: e.ds.Labels,
		soc: &p.soc, nn: p.nn, r: r, cand: &p.cand, st: st,
	}

	// Quick Combine: exponentially-smoothed per-pull growth of each
	// stream's frontier distance, weighted by the domain coefficient; the
	// faster-growing stream is probed because it lifts θ sooner.
	var socRate, spaRate float64
	var socPulls, spaPulls int
	const smooth = 0.5

	for !(t.socDone && t.spaDone) {
		if cfg.quickCombine {
			// Bootstrap: probe each stream twice before trusting the rates.
			pickSocial := !t.socDone &&
				(t.spaDone || socPulls < 2 ||
					(spaPulls >= 2 && prm.Alpha*socRate >= (1-prm.Alpha)*spaRate))
			if pickSocial {
				socPulls++
				before := t.tp
				t.advanceSocial()
				socRate = smooth*socRate + (1-smooth)*(t.tp-before)
			} else {
				spaPulls++
				before := t.td
				t.advanceSpatial()
				spaRate = smooth*spaRate + (1-smooth)*(t.td-before)
			}
		} else {
			t.advanceSocial()
			t.advanceSpatial()
		}
		if t.theta() >= r.Fk() {
			break
		}
	}

	if cfg.prune {
		// TSA with landmarks: eliminate candidates whose landmark-derived f
		// lower bound already misses the interim result. The bound comes
		// from the query's view, so it is admissible on exactly the graph
		// this query is searching.
		lm := sns[0].Landmarks()
		useFoF := e.fof != nil && t.cand.Len() > 0
		if useFoF {
			p.fof.Arm(e.fof, soc, q, fof.DefaultBudget)
		}
		for u, d := range t.cand.d {
			lb := lm.LowerBound(q, u)
			if useFoF {
				if f := p.fof.LowerBound(u); f > lb {
					lb = f
					st.FoFTightened++
				}
			}
			if combine(prm.Alpha, lb, d) >= r.Fk() {
				delete(t.cand.d, u)
			}
		}
	}

	e.tsaPhase2Social(q, prm, st, r, t.cand, t.soc, t.tp, t.socDone)
	return r.Sorted()
}

// tsaPhase2Social continues only the social search until every candidate is
// evaluated, disqualified, or provably beaten (θ′ ≥ f_k).
func (e *Searcher) tsaPhase2Social(q graph.VertexID, prm Params, st *Stats, r *topK,
	cand *candidateSet, soc *graph.DijkstraIterator, tp float64, socDone bool) {
	for cand.Len() > 0 && !socDone {
		if combine(prm.Alpha, tp, cand.MinD()) >= r.Fk() {
			return
		}
		v, p, ok := soc.Next()
		if !ok {
			// Remaining candidates are socially unreachable: f = +Inf.
			return
		}
		st.SocialPops++
		tp = p
		if cand.Contains(v) {
			d := cand.D(v)
			r.Consider(Entry{ID: v, F: combine(prm.Alpha, p, d), P: p, D: d})
			cand.Remove(v)
		}
	}
}
