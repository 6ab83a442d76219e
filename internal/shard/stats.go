package shard

import (
	"time"

	"ssrq/internal/core"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// ShardStat is one shard's live state, the per-shard section of /stats.
type ShardStat struct {
	// Shard is the shard index; Cells how many grid leaf cells it owns.
	Shard int
	Cells int
	// NumLocated is the shard's located-user count in the published view.
	NumLocated int
	// Epoch / SocialEpoch are the versions of the shard's snapshot in the
	// published view.
	Epoch       uint64
	SocialEpoch uint64
	// AppliedBatches counts the published batches that routed the shard a
	// share of location ops — sync or queued writes and replay alike.
	AppliedBatches int64
}

// ShardStats returns every shard's section of the published view. Cell
// ownership is the cut New made, counted once.
func (se *Engine) ShardStats() []ShardStat {
	sns := *se.view.Load()
	out := make([]ShardStat, len(se.shards))
	for s, sn := range sns {
		out[s] = ShardStat{
			Shard:          s,
			Cells:          se.cells[s],
			NumLocated:     sn.Grid().NumLocated(),
			Epoch:          sn.Epoch(),
			SocialEpoch:    sn.SocialEpoch(),
			AppliedBatches: se.shardBatches[s].Load(),
		}
	}
	return out
}

// Imbalance returns the published view's occupancy imbalance: the most
// populated shard's located-user count over the mean (1 for a perfectly
// balanced or empty engine).
func (se *Engine) Imbalance() float64 {
	maxPop, total := 0, 0
	for _, sn := range *se.view.Load() {
		n := sn.Grid().NumLocated()
		total += n
		if n > maxPop {
			maxPop = n
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxPop) * float64(len(se.shards)) / float64(total)
}

// FanoutStats counts how queries spanned the shards. All counters commit
// only when a query succeeds end-to-end: a refused query (e.g. an algorithm
// outside the Served menu) contributes nothing.
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

// UpdateStats reports the published view and the engine's queue: Epoch
// sums the view's shard epochs, SocialEpoch is the view's one social epoch,
// and SnapshotAge is how long ago its newest snapshot was published — the
// numbers a query sees, never those of a batch still being applied. The
// applied counts are the ops and the units the writer has published (a
// cross-shard move counts once); the pending count is the ops waiting on
// the queue.
func (se *Engine) UpdateStats() core.UpdateStats {
	st := core.UpdateStats{AppliedUpdates: se.applied.Load(), AppliedBatches: se.batches.Load()}
	se.qmu.Lock()
	st.PendingUpdates = int64(se.queued)
	se.qmu.Unlock()
	sns := *se.view.Load()
	st.SocialEpoch = sns[0].SocialEpoch()
	var newest time.Time
	for _, sn := range sns {
		st.Epoch += sn.Epoch()
		if sn.PublishedAt().After(newest) {
			newest = sn.PublishedAt()
		}
	}
	st.SnapshotAge = time.Since(newest)
	return st
}

// SocialStats reports the social dimension straight from the shared
// substrate: one graph, one set of landmark tables and one set of
// maintenance counters, whatever the shard count. (The replicated
// design this replaced had to sum maintenance work across shards and
// re-align per-shard epochs; the substrate removes the ambiguity along with
// the S× work.)
func (se *Engine) SocialStats() core.SocialStats { return se.sub.Stats() }

// UserLocation returns a user's (normalized) coordinates in the published
// view; ok is false when unlocated. Lock-free.
func (se *Engine) UserLocation(id int32) (spatial.Point, bool) {
	if id < 0 || int(id) >= se.ds.NumUsers() {
		return spatial.Point{}, false
	}
	sns := *se.view.Load()
	if s := locate(sns, id); s >= 0 {
		return sns[s].Grid().Point(id), true
	}
	return spatial.Point{}, false
}

// NumLocated is the published view's located-user count.
func (se *Engine) NumLocated() int {
	total := 0
	for _, sn := range *se.view.Load() {
		total += sn.Grid().NumLocated()
	}
	return total
}

// LiveSocialGraph returns the shared substrate's latest published graph.
func (se *Engine) LiveSocialGraph() *graph.Graph { return se.sub.Snapshot().Graph() }
