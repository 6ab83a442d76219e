package core

import (
	"ssrq/internal/dataset"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// StateDiff computes the updates that carry a fresh engine over ds to the
// state described by locate (per-user current position, false = unlocated)
// and cur (the current social graph):
// moves for users whose position changed or appeared, removals for users
// located at construction but not now, edge upserts for new or reweighted
// edges, and edge removals for construction edges now absent — the
// checkpoint payload (see shard.Engine.Checkpoint).
func StateDiff(ds *dataset.Dataset, locate func(id int32) (spatial.Point, bool), cur *graph.Graph) []Update {
	n := ds.NumUsers()
	var out []Update
	for i := 0; i < n; i++ {
		id := int32(i)
		p, ok := locate(id)
		switch {
		case ok && (!ds.Located[i] || ds.Pts[i] != p):
			out = append(out, Update{ID: id, To: p})
		case !ok && ds.Located[i]:
			out = append(out, Update{ID: id, Remove: true})
		}
	}
	base := ds.G
	for u := 0; u < n; u++ {
		uid := graph.VertexID(u)
		vs, ws := cur.Neighbors(uid)
		for j, v := range vs {
			if int(v) <= u {
				continue // undirected: visit each edge once, as (u < v)
			}
			if bw, ok := base.EdgeWeight(uid, v); !ok || bw != ws[j] {
				out = append(out, Update{Kind: OpEdgeUpsert, U: int32(u), V: int32(v), W: ws[j]})
			}
		}
		bvs, _ := base.Neighbors(uid)
		for _, v := range bvs {
			if int(v) <= u {
				continue
			}
			if _, ok := cur.EdgeWeight(uid, v); !ok {
				out = append(out, Update{Kind: OpEdgeRemove, U: int32(u), V: int32(v)})
			}
		}
	}
	return out
}
