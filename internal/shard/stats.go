package shard

import (
	"ssrq/internal/core"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// ShardStat is one shard's live state, the per-shard section of /stats.
type ShardStat struct {
	// Shard is the shard index; Cells how many grid leaf cells it owns.
	Shard int
	Cells int
	// NumLocated is the shard's current located-user count.
	NumLocated int
	// Epoch / SocialEpoch are the shard's published index versions.
	Epoch       uint64
	SocialEpoch uint64
	// AppliedBatches counts the batches the shard applied — its share of
	// routed writes, sync or queued, replay and rebalance migrations alike.
	AppliedBatches int64
}

// ShardStats returns a point-in-time view of every shard. Cell ownership is
// recounted from the live routing table — it moves under rebalance.
func (se *Engine) ShardStats() []ShardStat {
	cells := make([]int, len(se.shards))
	for c := range se.cellShard {
		cells[se.cellShard[c].Load()]++
	}
	out := make([]ShardStat, len(se.shards))
	for s, sh := range se.shards {
		us := sh.UpdateStats()
		out[s] = ShardStat{
			Shard:          s,
			Cells:          cells[s],
			NumLocated:     sh.NumLocated(),
			Epoch:          us.Epoch,
			SocialEpoch:    us.SocialEpoch,
			AppliedBatches: us.AppliedBatches,
		}
	}
	return out
}

// FanoutStats counts how queries spanned the shards. All counters commit
// only when a query succeeds end-to-end: a refused query (e.g. a *-CH variant
// past social epoch 0) contributes nothing.
type FanoutStats struct {
	// Queries is the successful query count; Fanouts how many searched a view
	// of more than one shard (Queries when S ≥ 2, 0 when S = 1).
	Queries int64
	Fanouts int64
	// ShardsQueried / ShardsEmpty partition each query's view: shards that
	// located some user, whose top cells all seed the one search, and empty
	// ones. ShardsPruned is always 0: one search over S snapshots has no
	// shard-level admission to skip a shard by. It stays for readers that
	// still report it.
	ShardsQueried int64
	ShardsPruned  int64
	ShardsEmpty   int64
}

// FanoutStats returns the accumulated fan-out counters.
func (se *Engine) FanoutStats() FanoutStats {
	return FanoutStats{
		Queries:       se.queries.Load(),
		Fanouts:       se.fanouts.Load(),
		ShardsQueried: se.shardsQueried.Load(),
		ShardsEmpty:   se.shardsEmpty.Load(),
	}
}

// UpdateStats aggregates the shards' epochs and the engine's queue: epochs
// and applied-op counters sum over the shards (each publishes
// independently, and a cross-shard move counts on both), the snapshot age is
// the oldest shard's (the staleness bound a reader can observe), the social
// epoch is the furthest shard's (the substrate applies an edge batch once
// and syncs every shard to it before returning, so shards differ only while
// one such sync is in flight), and the pending and coalesced counts are the
// queue's.
func (se *Engine) UpdateStats() core.UpdateStats {
	var agg core.UpdateStats
	if u := se.up.Load(); u != nil {
		qs := u.Stats()
		agg.PendingUpdates, agg.CoalescedUpdates = qs.PendingUpdates, qs.CoalescedUpdates
	}
	for _, sh := range se.shards {
		us := sh.UpdateStats()
		agg.Epoch += us.Epoch
		if us.SocialEpoch > agg.SocialEpoch {
			agg.SocialEpoch = us.SocialEpoch
		}
		if us.SnapshotAge > agg.SnapshotAge {
			agg.SnapshotAge = us.SnapshotAge
		}
		agg.AppliedUpdates += us.AppliedUpdates
		agg.AppliedBatches += us.AppliedBatches
	}
	return agg
}

// SocialStats reports the social dimension straight from the shared
// substrate: one graph, one set of landmark tables and one set of
// maintenance counters, whatever the shard count. (The replicated
// design this replaced had to sum maintenance work across shards and
// re-align per-shard epochs; the substrate removes the ambiguity along with
// the S× work.)
func (se *Engine) SocialStats() core.SocialStats { return se.sub.Stats() }

// UserLocation returns a user's current (normalized) coordinates from the
// owning shard's published snapshot (the common case), else from whichever
// shard's snapshot locates them; ok is false when unlocated. A non-blocking
// single-user read: it may transiently miss a user whose cross-shard move is
// mid-flight (queries wait that out instead, see acquire).
func (se *Engine) UserLocation(id int32) (spatial.Point, bool) {
	if id < 0 || int(id) >= se.ds.NumUsers() {
		return spatial.Point{}, false
	}
	if o := se.owner[id].Load(); o >= 0 {
		if g := se.shards[o].Snapshot().Grid(); g.Located(id) {
			return g.Point(id), true
		}
	}
	for _, sh := range se.shards {
		if g := sh.Snapshot().Grid(); g.Located(id) {
			return g.Point(id), true
		}
	}
	return spatial.Point{}, false
}

// NumLocated sums the shards' located-user counts.
func (se *Engine) NumLocated() int {
	total := 0
	for _, sh := range se.shards {
		total += sh.NumLocated()
	}
	return total
}

// LiveSocialGraph returns the shared substrate's latest published graph.
func (se *Engine) LiveSocialGraph() *graph.Graph { return se.sub.Snapshot().Graph() }
