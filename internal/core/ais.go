package core

import (
	"ssrq/internal/aggindex"
	"ssrq/internal/fof"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// aisConfig selects the AIS flavor evaluated in Fig. 10.
type aisConfig struct {
	// sharing enables the §5.2 computation-sharing GraphDist submodule
	// (distance caching + forward-heap caching). Off = AIS-BID, which runs
	// a fresh bidirectional ALT search per evaluation.
	sharing bool
	// delayed enables the §5.3 delayed evaluation strategy (only meaningful
	// with sharing, which provides the β bound): candidates the forward
	// frontier has overtaken are pushed back instead of evaluated, and an
	// evaluation itself is floored by β and capped by f_k (see graphDist).
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

// runAIS is the Aggregate Index Search (Algorithm 2): a single best-first
// search over the social-summary grid, driven by the combined lower bound
// MINF (Theorem 1). Cells expand to children, leaves to users keyed by their
// individual landmark bound, and users are evaluated exactly — through the
// shared GraphDist submodule (with optional delayed evaluation) or, for
// AIS-BID, a fresh bidirectional search each time.
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

	var gd *graphDist
	var fb *freshBidirectional
	if cfg.sharing {
		gd = &p.gd
		gd.reset(soc, lm, q, &p.soc, p.rev, lm.HeuristicToVector(qvec), st, alpha, cfg.delayed)
	} else {
		fb = &freshBidirectional{
			g: soc, lm: lm, q: q, hToQ: lm.HeuristicToVector(qvec),
			fwdPool: p.fwd, revPool: p.rev, st: st,
		}
	}

	r := p.top.reset(prm.K)
	h := &p.ais
	h.Reset()

	filter := prm.Filter
	labels := e.ds.Labels
	// Friends-of-friends bound: armed once per query, it tightens the
	// per-user landmark bound at leaf expansion (often past the cell bound
	// that admitted the leaf, so fewer users survive to exact evaluation).
	useFoF := e.fof != nil
	if useFoF {
		p.fof.Arm(e.fof, soc, q, fof.DefaultBudget)
	}

	// Seed the search with every snapshot's top grid level, its Lemma-2
	// bounds evaluated in one flat batch over the summary arrays.
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
			if key := combine(alpha, p.cellLow[idx], dLow); finite(key) {
				h.Push(key, aisTie(0, shard, idx), aisItem{0, shard, idx})
			}
		}
	}

	for h.Len() > 0 {
		head := h.Peek()
		if head.Key >= r.Fk() {
			break
		}
		item, _ := h.Pop()
		shard := item.Value.shard
		sn := sns[shard]
		g := sn.Grid()
		layout := g.Layout()
		switch {
		case item.Value.level != aisUser && int(item.Value.level) < layout.LeafLevel():
			st.IndexCellPops++
			level := int(item.Value.level)
			p.childBuf = layout.ChildIndices(level, item.Value.idx, p.childBuf[:0])
			for _, c := range p.childBuf {
				if g.CountAt(level+1, c) == 0 {
					continue
				}
				if filter != 0 && sn.CellLabelMask(level+1, c)&filter == 0 {
					st.LabelCellPrunes++
					continue
				}
				pLow := sn.SocialLowerBound(level+1, c, qvec)
				dLow := layout.CellMinDist(level+1, c, qpt)
				if key := combine(alpha, pLow, dLow); finite(key) {
					h.Push(key, aisTie(int16(level+1), shard, c), aisItem{int16(level + 1), shard, c})
				}
			}
		case item.Value.level != aisUser:
			// Leaf cell: enqueue members by their individual landmark bound.
			st.IndexCellPops++
			for _, u := range g.CellUsers(item.Value.idx) {
				if u == q {
					continue
				}
				if filter != 0 {
					var lbl uint64
					if labels != nil {
						lbl = labels[u]
					}
					if lbl&filter == 0 {
						st.LabelSkips++
						continue
					}
				}
				pLow := lm.LowerBound(q, u)
				if useFoF {
					if f := p.fof.LowerBound(u); f > pLow {
						pLow = f
						st.FoFTightened++
					}
				}
				d := g.Point(u).Dist(qpt)
				if key := combine(alpha, pLow, d); finite(key) {
					h.Push(key, aisTie(aisUser, shard, u), aisItem{aisUser, shard, u})
				}
			}
		default:
			u := item.Value.idx
			st.IndexUserPops++
			d := g.Point(u).Dist(qpt)
			if cfg.delayed {
				// §5.3: if the shared forward search has advanced past this
				// user's landmark bound, push it back with the tighter
				// β-based key instead of paying an exact evaluation.
				if _, known := gd.known(u); !known {
					if key := combine(alpha, gd.beta(), d); key > item.Key {
						st.Reinserts++
						h.Push(key, aisTie(aisUser, shard, u), aisItem{aisUser, shard, u})
						continue
					}
				}
			}
			var pd float64
			if gd != nil {
				var exact bool
				if pd, exact = gd.dist(u, d, r.Fk()); !exact {
					continue // p(q,u) ≥ pd already puts f(u) at or past f_k
				}
			} else {
				pd = fb.dist(u)
			}
			r.Consider(Entry{ID: u, F: combine(alpha, pd, d), P: pd, D: d})
		}
	}
	return r.Sorted()
}
