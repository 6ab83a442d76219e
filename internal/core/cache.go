package core

import (
	"sync"

	"ssrq/internal/aggindex"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// defaultCacheT is the t of §5.4 an engine starts with: how many
// socially-nearest users each pre-computed list holds. ResetCache changes it
// (the Fig. 11 sweep).
const defaultCacheT = 1000

// socialCache implements §5.4's graph-distance pre-computation: for a query
// user, the t socially-closest users with their exact distances. The paper
// materializes the lists for every user offline (an all-users build is
// available via Precompute); queries not covered yet compute their list on
// first use and memoize it, which yields the same per-query behaviour
// without the multi-hour cold build. The memo is never evicted on a static
// graph — one list per distinct query user — which is why AIS-Cache is a
// figure variant of the single-index engine and not served.
type socialCache struct {
	t  int
	mu sync.RWMutex
	// epoch is the social graph version the lists were computed on; edge
	// churn advances it and invalidates everything (a list built on an
	// older graph would silently serve wrong distances).
	epoch uint64
	// lists[q] holds the t nearest (vertex, distance) pairs ascending,
	// excluding q itself. complete[q] marks lists that exhausted q's
	// component before reaching t entries — such a list covers every
	// finitely-reachable user and never needs the AIS fallback.
	lists    map[graph.VertexID][]cachedNeighbor
	complete map[graph.VertexID]bool
}

type cachedNeighbor struct {
	V graph.VertexID
	P float64
}

func newSocialCache(t int) *socialCache {
	return &socialCache{
		t:        t,
		lists:    make(map[graph.VertexID][]cachedNeighbor),
		complete: make(map[graph.VertexID]bool),
	}
}

// get returns the memoized list for q at the given social epoch, computing
// it on first use and discarding lists from older epochs.
func (c *socialCache) get(g *graph.Graph, epoch uint64, q graph.VertexID) (list []cachedNeighbor, complete bool) {
	c.mu.RLock()
	var ok bool
	if c.epoch == epoch {
		list, ok = c.lists[q]
		complete = c.complete[q]
	}
	c.mu.RUnlock()
	if ok {
		return list, complete
	}
	list, complete = c.build(g, q)
	c.mu.Lock()
	if c.epoch != epoch {
		if c.epoch < epoch {
			// First list of a newer social epoch: drop the stale generation.
			c.lists = make(map[graph.VertexID][]cachedNeighbor)
			c.complete = make(map[graph.VertexID]bool)
			c.epoch = epoch
		} else {
			// A concurrent writer advanced past us: our list describes an
			// older graph — return it for this query (it matches the
			// snapshot the query runs on) but do not pollute the cache.
			c.mu.Unlock()
			return list, complete
		}
	}
	c.lists[q] = list
	c.complete[q] = complete
	c.mu.Unlock()
	return list, complete
}

func (c *socialCache) build(g *graph.Graph, q graph.VertexID) ([]cachedNeighbor, bool) {
	it := graph.NewDijkstraIterator(g, q)
	list := make([]cachedNeighbor, 0, c.t)
	for len(list) < c.t {
		v, p, ok := it.Next()
		if !ok {
			return list, true // component exhausted before t entries
		}
		if v == q {
			continue
		}
		list = append(list, cachedNeighbor{v, p})
	}
	return list, false
}

// Precompute builds the lists for the given query users eagerly (the
// paper's offline materialization, restricted to the users that will
// actually query — see DESIGN.md substitutions). Lists are built on the
// current social epoch; later edge churn invalidates them.
func (e *Engine) Precompute(users []graph.VertexID) {
	sn := e.agg.Snapshot()
	for _, q := range users {
		e.cache.get(sn.SocialGraph(), sn.SocialEpoch(), q)
	}
}

// ResetCache discards the pre-computed lists and changes t — the Fig. 11
// sweep varies t without rebuilding the rest of the engine.
func (e *Engine) ResetCache(t int) {
	if t < 1 {
		t = 1
	}
	e.cache = newSocialCache(t)
}

// runAISCache answers with the pre-computed list exactly like SFA would —
// list entries arrive in ascending social distance, so θ = α·p applies — and
// falls back to full AIS when the list is exhausted inconclusively (§5.4).
// Spatial distances come from the query's view.
func (e *Searcher) runAISCache(sns []*aggindex.Snapshot, q graph.VertexID, qpt spatial.Point, prm Params, st *Stats, p *queryPools) []Entry {
	list, complete := e.cache.get(sns[0].SocialGraph(), sns[0].SocialEpoch(), q)
	labels := e.ds.Labels
	r := p.top.reset(prm.K)
	// A list holding the whole component makes any scan exact.
	conclusive := complete
	for _, cn := range list {
		st.CacheHits++
		if prm.Filter != 0 {
			var lbl uint64
			if labels != nil {
				lbl = labels[cn.V]
			}
			if !prm.matches(lbl) {
				// The skipped entry still bounds everything after it in the
				// list (ascending social distance), so θ below stays valid.
				st.LabelSkips++
				if theta := prm.Alpha * cn.P; theta >= r.Fk() {
					conclusive = true
					break
				}
				continue
			}
		}
		d := spatialDist(sns, qpt, cn.V)
		r.Consider(Entry{ID: cn.V, F: combine(prm.Alpha, cn.P, d), P: cn.P, D: d})
		if theta := prm.Alpha * cn.P; theta >= r.Fk() {
			conclusive = true
			break
		}
	}
	if conclusive {
		return r.Sorted()
	}
	st.FellBack = true
	// The fallback restarts from scratch (runAIS re-arms p.top itself,
	// discarding the inconclusive scan, exactly as the paper's fallback
	// recomputes the full answer).
	return e.runAIS(sns, q, qpt, prm, st, p, aisConfig{sharing: true, delayed: true})
}
