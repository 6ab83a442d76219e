package shard

import (
	"math"

	"ssrq/internal/core"
)

// Online rebalancing. The construction-time Z-order partition equalizes
// occupancy for the initial population, but distance-dependent migration
// (hotspot drift, in the Herrera-Yagüe et al. sense) concentrates users into
// few cells and unbalances the cut: one shard's grid absorbs most of the
// update and query load while the rest idle. The engine therefore watches
// its own occupancy imbalance (max shard population over mean) on the
// update path and, past rebalanceThreshold, re-cuts the curve
// ONLINE: cutCurve runs again over live per-cell occupancy, and every leaf
// cell whose owner changed is drained to its new shard through the shards'
// ordinary synchronous batch apply.
//
// A re-cut never changes the world, and queries stay lock-free and exact
// throughout: cells move in small batches (rebalanceDrainBatch) under the
// writer lock, so the owner map and per-cell routing are frozen per batch
// and no write is mid-apply, while traffic flows freely between batches. A
// drain batch flips its cells' routing, routes every resident user's insert
// to the new owner and removal to the old one, and applies and publishes
// them like any write batch: one view, in which every moved user is in its
// new grid and no longer in its old one.
//
// Close composes with an in-flight rebalance by setting closed: the drain
// loop re-checks it at every batch boundary and aborts, and Close waits on
// the background goroutine. Automatic re-cuts are kicked by the writer, and
// Close waits for the writer to exit first, so none starts after it.

// rebalanceCheckEvery is how many routed location ops pass between
// imbalance evaluations on the update path (the check walks every shard's
// snapshot header, so it is kept off the per-op fast path).
const rebalanceCheckEvery = 512

const (
	// rebalanceThreshold is the occupancy imbalance (max shard population
	// over mean) past which the partition is re-cut.
	rebalanceThreshold = 1.6
	// rebalanceDrainBatch is how many leaf cells one pass migrates per
	// writer-lock acquisition: smaller shortens each writer stall, larger
	// finishes the re-cut sooner.
	rebalanceDrainBatch = 8
)

// RebalanceStats is a point-in-time view of the elastic partition.
type RebalanceStats struct {
	// Rebalances counts completed re-cuts that moved at least one cell.
	Rebalances int64
	// CellsMoved / UsersMoved total the migration volume across all re-cuts.
	CellsMoved int64
	UsersMoved int64
	// LastImbalance is the max/mean shard occupancy measured at the end of
	// the most recent re-cut (0 until one has run).
	LastImbalance float64
}

// RebalanceStats returns the accumulated rebalance counters.
func (se *Engine) RebalanceStats() RebalanceStats {
	return RebalanceStats{
		Rebalances:    se.rebalances.Load(),
		CellsMoved:    se.cellsMoved.Load(),
		UsersMoved:    se.usersMoved.Load(),
		LastImbalance: math.Float64frombits(se.lastImbalance.Load()),
	}
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

// noteUpdates ticks the auto-rebalance check after n routed location ops.
// Every rebalanceCheckEvery ops the imbalance is measured; past the
// threshold, one background re-cut is kicked (TryLock keeps it single-
// flight — a second trigger while one runs is simply dropped, the next
// check re-fires if skew persists).
func (se *Engine) noteUpdates(n int) {
	if se.rebalanceThreshold <= 0 || len(se.shards) < 2 {
		return
	}
	c := se.opsSinceCheck.Add(int64(n))
	if c < rebalanceCheckEvery {
		return
	}
	se.opsSinceCheck.Add(-c)
	if se.closed.Load() || se.Imbalance() < se.rebalanceThreshold {
		return
	}
	if !se.rebalanceMu.TryLock() {
		return
	}
	se.bg.Add(1)
	go func() {
		defer se.bg.Done()
		defer se.rebalanceMu.Unlock()
		se.rebalance()
	}()
}

// Rebalance synchronously re-cuts the partition against live occupancy and
// drains every cell whose owner changed; it returns how many cells moved
// (0 when the cut is already optimal). Exported for operational use and
// tests; the engine normally triggers the same path itself from the update
// stream. Serializes with the automatic trigger.
func (se *Engine) Rebalance() int {
	se.rebalanceMu.Lock()
	defer se.rebalanceMu.Unlock()
	return se.rebalance()
}

// rebalance is the re-cut + drain loop. Caller holds rebalanceMu.
func (se *Engine) rebalance() int {
	// Live occupancy per leaf cell, summed over the published view's grids.
	// Writes keep landing while we look; the cut only has to be good, not
	// perfect — residual skew re-triggers the next check.
	leaf := se.layout.LeafLevel()
	numCells := se.layout.NumCells(leaf)
	occ := make([]int64, numCells)
	for _, sn := range *se.view.Load() {
		g := sn.Grid()
		for c := int32(0); c < int32(numCells); c++ {
			occ[c] += int64(g.CountAt(leaf, c))
		}
	}
	target := cutCurve(se.layout, occ, len(se.shards))

	var moving []int32
	for c := int32(0); c < int32(numCells); c++ {
		if se.cellShard[c].Load() != target[c] {
			moving = append(moving, c)
		}
	}
	if len(moving) == 0 {
		return 0
	}

	moved := 0
	for len(moving) > 0 {
		n := min(max(se.drainBatch, 1), len(moving))
		se.writeMu.Lock()
		if se.closed.Load() {
			se.writeMu.Unlock()
			break
		}
		per := make([][]core.Update, len(se.shards))
		for _, c := range moving[:n] {
			if se.migrateCellLocked(per, c, target[c]) {
				moved++
			}
		}
		se.publish(nil, per)
		se.writeMu.Unlock()
		moving = moving[n:]
	}
	if moved > 0 {
		se.rebalances.Add(1)
	}
	se.lastImbalance.Store(math.Float64bits(se.Imbalance()))
	return moved
}

// migrateCellLocked re-owns one leaf cell: it flips the cell's routing and
// routes every resident user's insert to the new owner and removal to the
// old one into per, for the drain batch to publish. Caller holds writeMu,
// so the owner map is frozen, no write is mid-apply, and the old shard's
// snapshot is the authoritative residency list.
func (se *Engine) migrateCellLocked(per [][]core.Update, c, newS int32) bool {
	oldS := se.cellShard[c].Load()
	if oldS == newS {
		return false
	}
	se.cellShard[c].Store(newS)
	g := se.shards[oldS].Snapshot().Grid()
	users := g.CellUsers(c)
	for _, id := range users {
		per[newS] = append(per[newS], core.Update{ID: id, To: g.Point(id)})
		per[oldS] = append(per[oldS], core.Update{ID: id, Remove: true})
		se.owner[id].Store(newS)
	}
	se.cellsMoved.Add(1)
	se.usersMoved.Add(int64(len(users)))
	return true
}
