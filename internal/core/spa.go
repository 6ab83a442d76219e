package core

import (
	"ssrq/internal/aggindex"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// runSPA is the Spatial First Approach (§4.1): stream users by ascending
// Euclidean distance via the view's incremental NN search and evaluate
// each one's social distance, stopping once θ = (1−α)·d(last NN) reaches
// f_k.
//
// The vanilla social-distance module is the shared incremental Dijkstra from
// v_q, expanded just far enough to settle each requested target ("shortest
// paths produced incrementally, all with v_q as source").
func (e *Searcher) runSPA(sns []*aggindex.Snapshot, q graph.VertexID, qpt spatial.Point, prm Params, st *Stats, p *queryPools) []Entry {
	nn := p.nn
	nn.Reset(qpt, p.gridsOf(sns)...)
	r := p.top.reset(prm.K)
	fwd := &p.soc
	fwd.Reset(sns[0].SocialGraph(), q)

	labels := e.ds.Labels
	for {
		u, d, ok := nn.Next()
		if !ok {
			break // every located user has been evaluated
		}
		st.SpatialPops++
		if u == q {
			continue
		}
		if prm.Filter != 0 {
			var lbl uint64
			if labels != nil {
				lbl = labels[u]
			}
			if !prm.matches(lbl) {
				// Skip before paying the social-distance evaluation — the
				// expensive half of each SPA iteration.
				st.LabelSkips++
				continue
			}
		}
		// Social-distance module: the shared forward Dijkstra expanded just
		// far enough to settle the target.
		var pd float64
		for {
			if sd, settled := fwd.SettledDist(u); settled {
				pd = sd
				break
			}
			if _, _, ok := fwd.Next(); !ok {
				pd = graph.Infinity
				break
			}
			st.SocialPops++
		}
		r.Consider(Entry{ID: u, F: combine(prm.Alpha, pd, d), P: pd, D: d})
		if theta := (1 - prm.Alpha) * d; theta >= r.Fk() {
			break
		}
	}
	return r.Sorted()
}
