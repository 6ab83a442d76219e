package core

import (
	"ssrq/internal/aggindex"
	"ssrq/internal/graph"
	"ssrq/internal/pqueue"
	"ssrq/internal/spatial"
)

// aisConfig selects the AIS flavor evaluated in Fig. 10.
type aisConfig struct {
	// sharing enables the §5.2 computation-sharing GraphDist submodule
	// (distance caching + forward-heap caching). Off = AIS-BID, which runs
	// a fresh bidirectional ALT search per evaluation.
	sharing bool
	// delayed enables the §5.3 delayed evaluation strategy (only meaningful
	// with sharing, which provides the β bound): the forward search's head
	// key β floors every key of a user or cell the search has not settled,
	// users it settles are scored on the spot, and an evaluation itself is
	// floored by β and capped by f_k (see graphDist).
	delayed bool
}

// aisItem is one entry of the AIS branch-and-bound heap: an index cell
// (level ≥ 0) or a user (level == aisUser) of the view's snapshot shard.
type aisItem struct {
	level int16
	shard int16
	idx   int32
}

const aisUser = int16(-1)

// aisTie orders equal keys: users before cells, users by ID, cells by
// (level, shard, index).
func aisTie(level, shard int16, idx int32) int64 {
	if level == aisUser {
		return int64(idx)
	}
	return (int64(level)+1)<<40 | int64(shard)<<32 | int64(idx)
}

// aisRun is the state of one AIS execution. It lives in the query pools, not
// on the stack, because the forward search's settle hook points at it; its
// steps are methods rather than closures so that a query allocates nothing.
type aisRun struct {
	sns     []*aggindex.Snapshot
	qpt     spatial.Point
	q       graph.VertexID
	alpha   float64
	filter  uint64
	labels  []uint64
	delayed bool
	r       *topK
	gd      *graphDist         // the shared evaluator; nil for AIS-BID
	fb      freshBidirectional // AIS-BID's evaluator

	// heap holds cells and users keyed by their own lower bounds, β
	// included. postponed holds users whose landmark bound β has overtaken,
	// keyed by spatial distance d: their live key is α·β + (1−α)·d, the same
	// order for every entry whatever β is, so one entry per user serves the
	// rest of the query.
	heap      pqueue.Heap[aisItem]
	postponed pqueue.Heap[int32]

	// home[v] is the snapshot of the view that located user v when this
	// scratch last looked, kept across queries. It only orders locate's
	// probes, so a stale value costs a probe, never an answer.
	home []uint8
}

// reset arms the run for a query over the view sns.
func (a *aisRun) reset(sns []*aggindex.Snapshot, q graph.VertexID, qpt spatial.Point, prm Params, labels []uint64, r *topK, delayed bool) {
	a.sns, a.q, a.qpt = sns, q, qpt
	a.alpha, a.filter, a.labels = prm.Alpha, prm.Filter, labels
	a.r, a.delayed = r, delayed
	a.heap.Reset()
	a.postponed.Reset()
	if n := sns[0].Grid().NumUsers(); len(sns) > 1 && len(a.home) < n {
		a.home = make([]uint8, n)
	}
}

// beta is the floor every not-yet-settled user's social distance has: the
// forward search's head key under delayed evaluation, 0 (no information)
// otherwise — which makes AIS⁻ and AIS-BID the same loop with no β.
func (a *aisRun) beta() float64 {
	if !a.delayed {
		return 0
	}
	return a.gd.beta()
}

// scored reports whether user u already went to the interim result when the
// forward search settled it; both queues skip such users.
func (a *aisRun) scored(u int32) bool { return a.delayed && a.gd.fwd.Settled(u) }

// excluded reports whether the query filter rejects user u.
func (a *aisRun) excluded(u int32) bool {
	if a.filter == 0 {
		return false
	}
	var lbl uint64
	if a.labels != nil {
		lbl = a.labels[u]
	}
	return lbl&a.filter == 0
}

// settle is the forward search's hook under delayed evaluation: the users it
// has just settled are scored with their exact distances before anything
// reads f_k again, so neither queue ever has to evaluate them (DESIGN.md
// §4.12).
func (a *aisRun) settle(vs []graph.VertexID) {
	for _, v := range vs {
		if v == a.q || a.excluded(v) {
			continue
		}
		if pt, ok := a.locate(v); ok {
			p, _ := a.gd.fwd.SettledDist(v)
			d := pt.Dist(a.qpt)
			a.r.Consider(Entry{ID: v, F: combine(a.alpha, p, d), P: p, D: d})
		}
	}
}

// locate returns the position of settled user v in the snapshot of the view
// that locates it. Over several snapshots the probes start at the one that
// located v when this scratch last looked: users seldom change shards, so the
// first probe almost always hits, and only an unlocated user costs one probe
// per snapshot. It relies on the view locating each user at most once.
func (a *aisRun) locate(v graph.VertexID) (spatial.Point, bool) {
	n := len(a.sns)
	if n == 1 {
		if g := a.sns[0].Grid(); g.Located(v) {
			return g.Point(v), true
		}
		return spatial.Point{}, false
	}
	start := 0
	if int(a.home[v]) < n {
		start = int(a.home[v])
	}
	s := start
	for {
		if g := a.sns[s].Grid(); g.Located(v) {
			a.home[v] = uint8(s)
			return g.Point(v), true
		}
		if s++; s == n {
			s = 0
		}
		if s == start {
			return spatial.Point{}, false
		}
	}
}

// evaluate computes user u's social distance — through the shared GraphDist,
// or a fresh bidirectional search for AIS-BID — and offers u to the interim
// result, unless GraphDist proved it cannot enter.
func (a *aisRun) evaluate(u int32, d float64) {
	var pd float64
	if a.gd != nil {
		var exact bool
		if pd, exact = a.gd.dist(u, d, a.r.Fk()); !exact {
			return // p(q,u) ≥ pd already puts f(u) at or past f_k
		}
	} else {
		pd = a.fb.dist(u)
	}
	a.r.Consider(Entry{ID: u, F: combine(a.alpha, pd, d), P: pd, D: d})
}

// runAIS is the Aggregate Index Search (Algorithm 2): a single best-first
// search over the social-summary grid, driven by the combined lower bound
// MINF (Theorem 1). Cells expand to children, leaves to users keyed by their
// individual landmark bound, and users are evaluated exactly — through the
// shared GraphDist submodule (with optional delayed evaluation) or, for
// AIS-BID, a fresh bidirectional search each time.
//
// Delayed evaluation (§5.3) lifts every key to the forward search's head key
// β, which lower-bounds the social distance of every user it has not settled,
// and scores the users it has settled as it settles them. A cell is pushed at
// max(Lemma 2, β) and pushed back when β has overtaken its key; a user whose
// landmark bound β has overtaken waits in the one β-queue. Nothing the
// forward search has settled is evaluated, and no user is queued twice
// (DESIGN.md §4.12).
//
// Over a view of several snapshots the index is a forest: every snapshot's
// occupied top cells seed the one heap, and each item carries the snapshot it
// came from, so membership, occupancy and summaries are always read from the
// snapshot the Lemma-2 bounds were built for (DESIGN.md §5.6). The social
// side is one landmark vector, one forward ball and one GraphDist.
func (e *Searcher) runAIS(sns []*aggindex.Snapshot, q graph.VertexID, qpt spatial.Point, prm Params, st *Stats, p *queryPools, cfg aisConfig) []Entry {
	soc, lm := sns[0].SocialGraph(), sns[0].Landmarks()
	p.qvec = lm.AppendVertexVector(p.qvec[:0], q)
	qvec := p.qvec
	alpha := prm.Alpha

	r := p.top.reset(prm.K)
	a := &p.ais
	a.reset(sns, q, qpt, prm, e.ds.Labels, r, cfg.delayed)
	if cfg.sharing {
		a.gd = &p.gd
		var hook *aisRun
		if cfg.delayed {
			hook = a
		}
		a.gd.reset(soc, lm, q, &p.soc, p.rev, lm.HeuristicToVector(qvec), st, alpha, cfg.delayed, hook)
	} else {
		a.gd = nil
		if p.fwd == nil {
			p.fwd = graph.NewAStarPool(soc.NumVertices())
		}
		a.fb = freshBidirectional{
			g: soc, lm: lm, q: q, hToQ: lm.HeuristicToVector(qvec),
			fwdPool: p.fwd, revPool: p.rev, st: st,
		}
	}
	h, post := &a.heap, &a.postponed

	filter := prm.Filter

	// Seed the search with every snapshot's top grid level, its Lemma-2
	// bounds evaluated in one flat batch over the summary arrays.
	beta := a.beta()
	for s, sn := range sns {
		g, shard := sn.Grid(), int16(s)
		layout := g.Layout()
		p.cellLow = sn.SocialLowerBoundsInto(0, qvec, p.cellLow)
		for idx := int32(0); idx < int32(layout.NumCells(0)); idx++ {
			if g.CountAt(0, idx) == 0 {
				continue
			}
			if filter != 0 && sn.CellLabelMask(0, idx)&filter == 0 {
				// No member of this cell carries a requested label: the whole
				// subtree is disqualified before any bound arithmetic.
				st.LabelCellPrunes++
				continue
			}
			dLow := layout.CellMinDist(0, idx, qpt)
			if key := combine(alpha, max(p.cellLow[idx], beta), dLow); finite(key) {
				h.Push(key, aisTie(0, shard, idx), aisItem{0, shard, idx})
			}
		}
	}

	for {
		// The β-queue's head is its first user the forward search has not
		// settled meanwhile; it competes with the heap at its live key.
		beta = a.beta()
		postKey := graph.Infinity
		for post.Len() > 0 {
			if head := post.Peek(); !a.scored(head.Value) {
				postKey = combine(alpha, beta, head.Key)
				break
			}
			post.Pop()
			st.IndexUserPops++
		}
		if h.Len() == 0 || postKey < h.Peek().Key {
			if postKey >= r.Fk() {
				break
			}
			u, _ := post.Pop()
			st.IndexUserPops++
			a.evaluate(u.Value, u.Key)
			continue
		}
		item, _ := h.Pop()
		if item.Key >= r.Fk() {
			break
		}
		shard := item.Value.shard
		sn := sns[shard]
		g := sn.Grid()
		layout := g.Layout()
		level, idx := int(item.Value.level), item.Value.idx
		if item.Value.level == aisUser {
			st.IndexUserPops++
			if a.scored(idx) {
				continue
			}
			d := g.Point(idx).Dist(qpt)
			if combine(alpha, beta, d) > item.Key {
				// β has overtaken the landmark bound since the user was
				// queued: it waits in the β-queue instead.
				st.Reinserts++
				post.Push(d, int64(idx), idx)
				continue
			}
			a.evaluate(idx, d)
			continue
		}
		st.IndexCellPops++
		if key := combine(alpha, beta, layout.CellMinDist(level, idx, qpt)); key > item.Key {
			// Every member the forward search has not settled is at least β
			// away: the cell goes back with that key.
			st.Reinserts++
			if finite(key) {
				h.Push(key, aisTie(item.Value.level, shard, idx), item.Value)
			}
			continue
		}
		if level < layout.LeafLevel() {
			p.childBuf = layout.ChildIndices(level, idx, p.childBuf[:0])
			for _, c := range p.childBuf {
				if g.CountAt(level+1, c) == 0 {
					continue
				}
				if filter != 0 && sn.CellLabelMask(level+1, c)&filter == 0 {
					st.LabelCellPrunes++
					continue
				}
				pLow := sn.SocialLowerBound(level+1, c, qvec)
				if beta > pLow {
					st.Reinserts++
					pLow = beta
				}
				dLow := layout.CellMinDist(level+1, c, qpt)
				if key := combine(alpha, pLow, dLow); finite(key) {
					h.Push(key, aisTie(int16(level+1), shard, c), aisItem{int16(level + 1), shard, c})
				}
			}
			continue
		}
		// Leaf cell: enqueue members by their individual landmark bound, or
		// straight into the β-queue when β already beats it.
		for _, u := range g.CellUsers(idx) {
			if u == q {
				continue
			}
			if a.excluded(u) {
				st.LabelSkips++
				continue
			}
			if a.scored(u) {
				continue
			}
			d := g.Point(u).Dist(qpt)
			key := combine(alpha, lm.LowerBound(q, u), d)
			if combine(alpha, beta, d) > key {
				st.Reinserts++
				post.Push(d, int64(u), u)
				continue
			}
			if finite(key) {
				h.Push(key, aisTie(aisUser, shard, u), aisItem{aisUser, shard, u})
			}
		}
	}
	return r.Sorted()
}
