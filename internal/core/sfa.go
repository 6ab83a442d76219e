package core

import (
	"ssrq/internal/aggindex"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// runSFA is the Social First Algorithm (§4.1): expand Dijkstra around v_q,
// evaluate every settled user (Euclidean distance is trivial to attach), and
// stop once θ = α·p(last settled) can no longer beat f_k. Spatial reads go
// through the query's view sns, with qpt standing in for the query location
// (q itself need not be located in it — see Searcher.QueryOn).
func (e *Searcher) runSFA(sns []*aggindex.Snapshot, q graph.VertexID, qpt spatial.Point, prm Params, st *Stats, p *queryPools) []Entry {
	labels := e.ds.Labels
	it := &p.soc
	it.Reset(sns[0].SocialGraph(), q)
	r := p.top.reset(prm.K)
	for {
		v, p, ok := it.Next()
		if !ok {
			break // component exhausted: all unseen users have p = +Inf
		}
		st.SocialPops++
		if v == q {
			continue
		}
		if prm.Filter != 0 {
			var lbl uint64
			if labels != nil {
				lbl = labels[v]
			}
			if !prm.matches(lbl) {
				// Non-matching users still drive the expansion (they are
				// waypoints to matching ones) but never enter the result.
				st.LabelSkips++
				continue
			}
		}
		d := spatialDist(sns, qpt, v)
		r.Consider(Entry{ID: v, F: combine(prm.Alpha, p, d), P: p, D: d})
		if theta := prm.Alpha * it.LastKey(); theta >= r.Fk() {
			break
		}
	}
	return r.Sorted()
}
