package core

import (
	"ssrq/internal/aggindex"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// runBrute is the exhaustive reference: one full shortest-path sweep from the
// query vertex, then a linear scan scoring every user against the view's
// locations. Used for cross-validation and as an honest lower bound on what
// indexing must beat.
func (e *Searcher) runBrute(sns []*aggindex.Snapshot, q graph.VertexID, qpt spatial.Point, prm Params, st *Stats) []Entry {
	dist := sns[0].SocialGraph().DistancesFrom(q)
	st.SocialPops += e.ds.NumUsers()
	labels := e.ds.Labels
	r := newTopK(prm.K)
	for v := 0; v < e.ds.NumUsers(); v++ {
		id := graph.VertexID(v)
		if id == q {
			continue
		}
		if prm.Filter != 0 {
			var lbl uint64
			if labels != nil {
				lbl = labels[id]
			}
			if !prm.matches(lbl) {
				st.LabelSkips++
				continue
			}
		}
		p := dist[v]
		d := spatialDist(sns, qpt, id)
		r.Consider(Entry{ID: id, F: combine(prm.Alpha, p, d), P: p, D: d})
	}
	return r.Sorted()
}
