package shard

import (
	"fmt"
	"math"
	"sync"

	"ssrq/internal/aggindex"
	"ssrq/internal/core"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// shardOutcome records how a fan-out treated one shard; per-query outcomes
// are accumulated locally and committed to the engine counters only when the
// whole query succeeds, so FanoutStats never over-reports under churn (an
// errored shard visit — e.g. a *-CH refusal past social epoch 0 — counts as
// nothing).
type shardOutcome int8

const (
	outSkipped shardOutcome = iota // not visited (home slot, or error aborted the fan-out)
	outQueried                     // searched successfully
	outPruned                      // skipped by the admission bound (static or live)
	outEmpty                       // skipped as empty
)

// Query answers an SSRQ by parallel fan-out: the query user's home shard is
// searched first (on geo-clustered data it holds most of the answer), and the
// remaining shards run in parallel against a *shared, live* threshold — a
// monotonically-tightening ceiling on the global kth score that every shard's
// search both reads on its termination checks and improves as its own interim
// result fills (core.SharedBound). The home shard seeds it with its kth
// score; from then on the fastest shard tightens the bound for every shard
// still searching. Shards whose best-possible combined Lemma-2 score cannot
// strictly beat the threshold are skipped entirely — checked once before
// launch and re-checked at goroutine start, so a late-launching shard prunes
// against the progress of siblings that already ran without doing any work. A
// k-way merge combines the per-shard lists.
//
// Each shard executes against its own published snapshot, all S of them
// taken up front at one migration-consistent point (see acquire), so a
// fan-out observes one consistent epoch per shard and a rebalance drain can
// never hide a user from it. That is still not one global epoch: a user whose
// own cross-shard *move* is mid-apply can be transiently absent from — or
// visible twice in — other users' fan-outs (the merge deduplicates the
// latter). Once no move is in flight (Flush), rebalancing or not, results are
// exactly a single index's, ID tiebreaks included: the shared
// threshold only ever holds some shard's fully-evaluated kth score (an upper
// bound on the merged kth), it abandons only strictly-worse candidates, and
// the merge comparator is the engines' own (F, ID) order.
func (se *Engine) Query(algo core.Algorithm, q graph.VertexID, prm core.Params) (*core.Result, error) {
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
	hsn := sns[home]
	qpt := hsn.Grid().Point(q)

	// The live global threshold. The home-shard search publishes its kth
	// score into it as its interim result fills, so by the time the fan-out
	// launches the bound already carries the home answer — and keeps
	// tightening as fan-out shards admit entries.
	sb := core.NewSharedBound(math.Inf(1))
	hres, err := se.shards[home].QueryOn(hsn, algo, q, qpt, sb, prm)
	if err != nil {
		return nil, err
	}
	if len(se.shards) == 1 {
		se.queries.Add(1)
		se.shardsQueried.Add(1)
		return hres, nil
	}

	outcomes := make([]shardOutcome, len(se.shards))
	results := make([]*core.Result, len(se.shards))
	errs := make([]error, len(se.shards))
	var maskPruned int
	var wg sync.WaitGroup
	for s := range se.shards {
		if s == home {
			continue
		}
		sn := sns[s]
		if sn.Grid().NumLocated() == 0 {
			outcomes[s] = outEmpty
			continue
		}
		if prm.Filter != 0 && !shardMatchesFilter(sn, prm.Filter) {
			// No located user of this shard carries a requested label: skip it
			// before even computing the Lemma-2 admission bound.
			outcomes[s] = outPruned
			maskPruned++
			continue
		}
		lb := shardLowerBound(sn, q, qpt, prm.Alpha)
		if lb > sb.Load() {
			// No user of this shard can strictly beat the current kth score,
			// and a tie would lose only to an entry already held: skip the
			// whole shard.
			outcomes[s] = outPruned
			continue
		}
		wg.Add(1)
		go func(s int, sn *aggindex.Snapshot, lb float64) {
			defer wg.Done()
			// Siblings that ran while this goroutine waited to be scheduled
			// may have tightened the threshold past this shard's best-possible
			// score: re-check before paying for a search.
			if lb > sb.Load() {
				outcomes[s] = outPruned
				return
			}
			r, err := se.shards[s].QueryOn(sn, algo, q, qpt, sb, prm)
			if err != nil {
				errs[s] = err
				return
			}
			results[s], outcomes[s] = r, outQueried
		}(s, sn, lb)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Success: commit the per-shard outcomes to the engine counters.
	se.queries.Add(1)
	se.fanouts.Add(1)
	se.shardsQueried.Add(1) // home
	for s, o := range outcomes {
		switch o {
		case outQueried:
			se.shardsQueried.Add(1)
		case outPruned:
			se.shardsPruned.Add(1)
			se.prunedBy[s].Add(1)
		case outEmpty:
			se.shardsEmpty.Add(1)
		}
	}

	lists := make([][]core.Entry, 0, len(se.shards))
	lists = append(lists, hres.Entries)
	stats := hres.Stats
	stats.LabelCellPrunes += maskPruned
	for _, r := range results {
		if r != nil {
			lists = append(lists, r.Entries)
			stats.Add(r.Stats)
		}
	}
	return &core.Result{
		Query:   q,
		Params:  prm,
		Entries: MergeTopK(prm.K, lists...),
		Stats:   stats,
	}, nil
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
// destination (both, transiently — the merge dedupes). The pass is S atomic
// loads and retries only while a drain is publishing; the searches run after
// it.
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

// loadSnapshots fills sns with one migration-consistent pass (see acquire).
func (se *Engine) loadSnapshots(sns []*aggindex.Snapshot) {
	for {
		seq := se.migrateSeq.Load()
		for s, sh := range se.shards {
			sns[s] = sh.Snapshot()
			if s == 0 {
				se.seam(seamFirstSnapshot)
			}
		}
		if se.migrateSeq.Load() == seq {
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

// shardMatchesFilter reports whether any occupied top-level cell of the
// shard's snapshot carries a label requested by the filter. A false answer is
// exact, not heuristic: each cell mask is the OR of its members' label sets,
// maintained with the same epoch discipline as the min/max summaries, so a
// miss proves no located member of this snapshot can match. An unlabeled
// index (nil masks) holds only unlabeled users, which never match a nonzero
// filter.
func shardMatchesFilter(sn *aggindex.Snapshot, filter uint64) bool {
	g := sn.Grid()
	for idx := int32(0); idx < int32(g.Layout().NumCells(0)); idx++ {
		if sn.CellLabelMask(0, idx)&filter != 0 && g.CountAt(0, idx) != 0 {
			return true
		}
	}
	return false
}

// shardLowerBound is the shard-level admission test: the minimum over the
// shard's occupied top-level cells of the combined Lemma-2 lower bound
// α·p̲ + (1−α)·d̲ — a lower bound on the f value of *every* user the shard
// locates, computed against the shard's own snapshot (its summaries and
// landmark tables describe exactly its membership). +Inf when the shard is
// empty or provably unreachable.
func shardLowerBound(sn *aggindex.Snapshot, q graph.VertexID, qpt spatial.Point, alpha float64) float64 {
	g := sn.Grid()
	layout := g.Layout()
	qvec := sn.Landmarks().VertexVector(q)
	// One flat batched pass over the level-0 summary arrays instead of a
	// per-cell bound call.
	lows := sn.SocialLowerBoundsInto(0, qvec, nil)
	best := math.Inf(1)
	for idx := int32(0); idx < int32(layout.NumCells(0)); idx++ {
		if g.CountAt(0, idx) == 0 {
			continue
		}
		d := layout.CellMinDist(0, idx, qpt)
		if f := alpha*lows[idx] + (1-alpha)*d; f < best {
			best = f
		}
	}
	return best
}

// QueryBatch answers a batch of queries on a pool of workers with exactly
// core.Engine.QueryBatch's contract (one shared implementation —
// core.RunBatch — so the clamping and error semantics cannot drift).
func (se *Engine) QueryBatch(queries []core.BatchQuery, workers int) []core.BatchResult {
	return core.RunBatch(queries, workers, func(bq core.BatchQuery) (*core.Result, error) {
		return se.Query(bq.Algo, bq.Q, bq.Params)
	})
}

// Precompute eagerly builds §5.4 social-distance lists for the given query
// users on every shard (each shard serves AISCache from its own memo).
func (se *Engine) Precompute(users []graph.VertexID) {
	for _, sh := range se.shards {
		sh.Precompute(users)
	}
}

// SpatialKNN returns the k spatially-nearest located users to q across all
// shards (pure one-domain query): per-shard KNN against one
// migration-consistent set of published snapshots (see acquire), merged by
// ascending (distance, ID).
func (se *Engine) SpatialKNN(q int32, k int) ([]spatial.Neighbor, error) {
	if q < 0 || int(q) >= se.ds.NumUsers() {
		return nil, fmt.Errorf("shard: user %d out of range [0,%d)", q, se.ds.NumUsers())
	}
	home, sns := se.acquire(graph.VertexID(q))
	if home < 0 {
		return nil, fmt.Errorf("shard: user %d has no known location", q)
	}
	qpt := sns[home].Grid().Point(q)
	var all []spatial.Neighbor
	for _, sn := range sns {
		all = append(all, sn.Grid().KNN(qpt, k, func(id int32) bool { return id == q })...)
	}
	sortNeighbors(all)
	out := make([]spatial.Neighbor, 0, k)
	seen := make(map[int32]struct{}, k)
	for _, nb := range all {
		if _, dup := seen[nb.ID]; dup {
			continue
		}
		seen[nb.ID] = struct{}{}
		out = append(out, nb)
		if len(out) == k {
			break
		}
	}
	return out, nil
}
