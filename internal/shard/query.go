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
// SPA, TSA and AIS, and the brute-force oracle. The other core.Algorithm
// values are the baselines and ablations of Figs. 8, 10 and 11; they run on a
// single-index core.Engine where the figures are drawn.
var Served = []core.Algorithm{core.SFA, core.SPA, core.TSA, core.AIS, core.BruteForce}

// Query answers an SSRQ as one search over the S shards' snapshots: the
// paper's algorithms read them as one forest (core.Engine.QueryOn), so the
// social work — landmark vector, forward Dijkstra, GraphDist — runs once
// whatever S is, and AIS's one heap holds every shard's occupied cells, each
// bounded against its own shard's summaries (DESIGN.md §5.6).
//
// The S snapshots are taken at one migration-consistent point and one social
// epoch (see acquire), so a rebalance drain can never hide a user from the
// query, and every cell summary bounds distances on the one graph the search
// runs on. That is still not one global epoch: a user whose own cross-shard
// *move* is mid-apply can be transiently absent from — or visible twice in —
// other users' answers (the search keeps a doubled user's better entry).
// Once no move is in flight (Flush), rebalancing or not, results are exactly
// a single index's, ID tiebreaks included.
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
	home, sns := se.acquire(q)
	if home < 0 {
		return nil, fmt.Errorf("shard: query user %d has no known location", q)
	}
	res, err := se.shards[0].QueryOn(sns, algo, q, sns[home].Grid().Point(q), prm)
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

// acquire loads every shard's published snapshot at one migration-consistent
// point and names the shard whose snapshot locates q (-1 when none does).
//
// A rebalance inserts a drained cell's users into the new owner before
// removing them from the old one, so they are visible in at least one shard
// at every instant — but not across two instants: a destination snapshot
// loaded before the insert plus a source snapshot loaded after the remove
// would hold them nowhere. migrateCellLocked bumps migrateSeq exactly once
// between its two publishes, so a load pass bracketed by two equal reads of it
// holds every migrated user in the pre-remove source or the post-insert
// destination (both, transiently — the search keeps one entry per user).
//
// The pass must also see one social epoch. The substrate publishes an edge
// batch by syncing its consumers one at a time, so a pass can straddle that
// sync, and the one search would then pair cell summaries derived from one
// epoch's landmark tables with another epoch's graph — a bound that is not a
// bound (DESIGN.md §5.6). The pass retries until every snapshot carries the
// same SocialEpoch as well as an unchanged migrateSeq: S atomic loads,
// repeated only while a drain or an edge sync is publishing; the search runs
// after it.
//
// A cross-shard *move* of q itself is a remove on one shard and an insert on
// another, applied one after the other, so a continuously located q can be
// in no snapshot for a moment. The batch holds q's stripe from routing until
// both halves are published, so once this query holds that stripe owner[q]
// is final and its shard has published q. The stripe stays held through the
// reload so that q's next move cannot remove q in between. A bounded wait
// only mid-relocation queriers pay, so a query never spuriously fails with
// "no known location".
func (se *Engine) acquire(q graph.VertexID) (int, []*aggindex.Snapshot) {
	sns := make([]*aggindex.Snapshot, len(se.shards))
	se.loadSnapshots(sns)
	if home := se.homeIn(sns, q); home >= 0 {
		return home, sns
	}
	se.seam(seamHomeFallback)
	mu := &se.locks[stripeOf(int32(q))]
	mu.Lock() // waits out an apply in flight, and keeps the next one out
	defer mu.Unlock()
	if se.owner[q].Load() < 0 {
		return -1, nil
	}
	se.loadSnapshots(sns)
	return se.homeIn(sns, q), sns
}

// loadSnapshots fills sns with one pass that is migration-consistent and at
// one social epoch (see acquire).
func (se *Engine) loadSnapshots(sns []*aggindex.Snapshot) {
	for {
		seq := se.migrateSeq.Load()
		oneEpoch := true
		for s, sh := range se.shards {
			sns[s] = sh.Snapshot()
			if s == 0 {
				se.seam(seamFirstSnapshot)
			}
			oneEpoch = oneEpoch && sns[s].SocialEpoch() == sns[0].SocialEpoch()
		}
		if oneEpoch && se.migrateSeq.Load() == seq {
			return
		}
	}
}

// homeIn returns the shard among sns that locates q, preferring the owner map
// (when q is visible twice mid-relocation, the owner is the newer location);
// -1 when none does. q must be in range.
func (se *Engine) homeIn(sns []*aggindex.Snapshot, q graph.VertexID) int {
	if o := se.owner[q].Load(); o >= 0 && sns[o].Grid().Located(q) {
		return int(o)
	}
	for s, sn := range sns {
		if sn.Grid().Located(q) {
			return s
		}
	}
	return -1
}

// QueryBatch answers a batch of queries on a pool of workers with exactly
// core.Engine.QueryBatch's contract (one shared implementation —
// core.RunBatch — so the clamping and error semantics cannot drift).
func (se *Engine) QueryBatch(queries []core.BatchQuery, workers int) []core.BatchResult {
	return core.RunBatch(queries, workers, func(bq core.BatchQuery) (*core.Result, error) {
		return se.Query(bq.Algo, bq.Q, bq.Params)
	})
}

// SpatialKNN returns the k spatially-nearest located users to q across all
// shards (pure one-domain query): the first k users other than q from one NN
// stream over a migration-consistent set of published snapshots (see
// acquire), in ascending (distance, ID) order. A user visible in two
// snapshots is reported once, at its nearer position.
func (se *Engine) SpatialKNN(q int32, k int) ([]spatial.Neighbor, error) {
	if q < 0 || int(q) >= se.ds.NumUsers() {
		return nil, fmt.Errorf("shard: user %d out of range [0,%d)", q, se.ds.NumUsers())
	}
	home, sns := se.acquire(graph.VertexID(q))
	if home < 0 {
		return nil, fmt.Errorf("shard: user %d has no known location", q)
	}
	grids := make([]*spatial.Snapshot, len(sns))
	for s, sn := range sns {
		grids[s] = sn.Grid()
	}
	it := spatial.NewNNIterator()
	it.Reset(grids[home].Point(q), grids...)
	out := make([]spatial.Neighbor, 0, k)
	seen := make(map[int32]struct{}, k)
	for len(out) < k {
		id, d, ok := it.Next()
		if !ok {
			break
		}
		if _, dup := seen[id]; dup || id == q {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, spatial.Neighbor{ID: id, Dist: d})
	}
	return out, nil
}
