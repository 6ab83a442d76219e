package shard

import (
	"fmt"
	"slices"

	"ssrq/internal/aggindex"
	"ssrq/internal/core"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// Served lists the algorithms Query answers, in enum order: the paper's SFA,
// TSA and AIS, and the brute-force oracle. The other core.Algorithm values —
// SPA, which no measurement shows fastest, and the baselines and ablations of
// Figs. 8, 10 and 11 — run on a single-index core.Engine where the figures
// are drawn.
var Served = []core.Algorithm{core.SFA, core.TSA, core.AIS, core.BruteForce}

// Query answers an SSRQ as one search over the published view: the paper's
// algorithms read its S snapshots as one forest (core.Searcher.QueryOn), so the
// social work — landmark vector, forward Dijkstra, GraphDist — runs once
// whatever S is, and AIS's one heap holds every shard's occupied cells, each
// bounded against its own shard's summaries (DESIGN.md §5.6).
//
// The view is one load of one pointer and one instant of the world (see
// update.go): every located user is in exactly one of its grids and every
// grid is at one social epoch, so the answer is exactly a single index's at
// that instant, ID tiebreaks included, whatever writes are in flight. No
// lock is taken.
//
// Only the Served algorithms are answered; any other value is refused with an
// error naming it.
func (se *Engine) Query(algo core.Algorithm, q graph.VertexID, prm core.Params) (*core.Result, error) {
	if !slices.Contains(Served, algo) {
		return nil, fmt.Errorf("shard: %v is not served (figure variants run on a single-index core.Engine)", algo)
	}
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if q < 0 || int(q) >= se.ds.NumUsers() {
		return nil, fmt.Errorf("shard: query user %d out of range [0,%d)", q, se.ds.NumUsers())
	}
	sns := *se.view.Load()
	home := locate(sns, q)
	if home < 0 {
		return nil, fmt.Errorf("shard: query user %d has no known location", q)
	}
	res, err := se.search.QueryOn(sns, algo, q, sns[home].Grid().Point(q), prm)
	if err != nil {
		return nil, err
	}
	// Counters commit only for a query that succeeded end to end.
	se.queries.Add(1)
	if len(sns) > 1 {
		se.fanouts.Add(1)
	}
	for _, sn := range sns {
		if sn.Grid().NumLocated() == 0 {
			se.shardsEmpty.Add(1)
		} else {
			se.shardsQueried.Add(1)
		}
	}
	return res, nil
}

// locate returns the shard whose snapshot in the view sns locates the user,
// -1 when none does. A view holds each located user in exactly one grid.
func locate(sns []*aggindex.Snapshot, id int32) int {
	for s, sn := range sns {
		if sn.Grid().Located(id) {
			return s
		}
	}
	return -1
}

// SpatialKNN returns the k spatially-nearest located users to q across all
// shards (pure one-domain query): the first k users other than q from one NN
// stream over the published view, in ascending (distance, ID) order.
func (se *Engine) SpatialKNN(q int32, k int) ([]spatial.Neighbor, error) {
	if q < 0 || int(q) >= se.ds.NumUsers() {
		return nil, fmt.Errorf("shard: user %d out of range [0,%d)", q, se.ds.NumUsers())
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: k = %d must be ≥ 1", k)
	}
	sns := *se.view.Load()
	home := locate(sns, q)
	if home < 0 {
		return nil, fmt.Errorf("shard: user %d has no known location", q)
	}
	grids := make([]*spatial.Snapshot, len(sns))
	located := 0
	for s, sn := range sns {
		grids[s] = sn.Grid()
		located += grids[s].NumLocated()
	}
	it := spatial.NewNNIterator()
	it.Reset(grids[home].Point(q), grids...)
	out := make([]spatial.Neighbor, 0, min(k, located))
	for len(out) < k {
		id, d, ok := it.Next()
		if !ok {
			break
		}
		if id != q {
			out = append(out, spatial.Neighbor{ID: id, Dist: d})
		}
	}
	return out, nil
}
