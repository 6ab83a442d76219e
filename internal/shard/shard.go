// Package shard implements the spatially-partitioned SSRQ engine: users are
// split across S spatially-contiguous shards by a space-filling-curve
// assignment of grid leaf cells, and every shard is one spatial index — its
// own grid and AIS aggregate index over the users it owns, on the layout of
// the whole dataset. The engine publishes the S shards' snapshots together,
// as one view per write batch, and a query is one search over that view by
// the engine's one core.Searcher (query.go); updates route to the shard
// owning the user's current location. Every write takes one path
// (update.go): a batch, synchronous or asynchronous, goes on the engine's
// one queue, and the one writer goroutine stages and commits what it takes
// off the queue, then routes, applies and publishes it under the writer
// lock.
//
// The decomposition trades the two dimensions differently:
//
//   - The spatial dimension is PARTITIONED: each user's location is indexed
//     by exactly one shard, so each grid and its AIS summaries cover only
//     that shard's members. The partition is ELASTIC: occupancy imbalance
//     past a threshold re-cuts the Z-order curve online, draining leaf cells
//     to their new owners through the shards' ordinary batch apply while
//     queries keep serving lock-free (see rebalance.go).
//   - The social dimension is SHARED: one aggindex.Social substrate owns the
//     friendship graph overlay, the landmark tables and their maintenance
//     loop, and every shard's aggregate index consumes its epoch-tagged
//     snapshots. Sharing (rather than the
//     per-shard replication of earlier revisions) is what keeps social
//     distances exact at O(1) edge-op cost: shortest paths route through
//     arbitrary vertices, so the graph cannot be partitioned — but it also
//     need not be copied. A batch's edge ops apply once, and every shard
//     re-derives the summaries they invalidated in the same apply that takes
//     its location ops (aggindex.Apply), before the view publishes, so no
//     view pairs new membership with stale Lemma-2 bounds.
//
// Urban social structure does not follow spatial cut lines (Herrera-Yagüe
// et al., "The anatomy of urban social networks"), so social work cannot be
// split by shard. A query therefore runs once, as the paper's algorithms over
// the S grids read as one forest: one social search, every shard's cells in
// one best-first heap, each bounded against its own shard's summaries. The
// same literature's distance-dependent migration is what unbalances a frozen
// partition — hence the online re-cut.
//
// Equivalence with a single index over the whole dataset is exact, not
// approximate: the search is the unmodified paper algorithm over one view —
// every located user in exactly one of its grids, every grid at one social
// epoch — and the metamorphic/differential harness in internal/core asserts
// S shards == a bare core.Engine == brute under interleaved churn, including
// across a forced mid-stream rebalance. S = 1 is that same cut with no
// boundary, which is why it is the engine's default rather than a second
// implementation.
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ssrq/internal/aggindex"
	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/spatial"
	"ssrq/internal/wal"
)

// MaxShards bounds the shard count, and with it the snapshots one query
// loads and the top cells it seeds.
const MaxShards = 64

// Engine is the routed composition over S ≥ 1 spatial indexes and one social
// substrate — the one engine the root ssrq package serves from. S = 1 is the
// same code with no boundary to cross: one shard, one snapshot per query.
type Engine struct {
	ds     *dataset.Dataset
	layout *spatial.Layout
	// cellShard maps each leaf cell to its owning shard. Entries move while
	// the engine serves (rebalance re-cuts the curve online); they are written
	// under writeMu and read by routing and stats, so each is an atomic.
	cellShard []atomic.Int32
	sub       *aggindex.Social  // shared social substrate, owned by this engine
	shards    []*aggindex.Index // one per shard, written only under writeMu
	search    *core.Searcher    // runs every query over the view

	// owner[id] is the shard routing last sent the user to (-1 when
	// unlocated), written under writeMu.
	owner []atomic.Int32

	// view is what every reader loads: the S shards' snapshots of one
	// instant, indexed by shard and never mutated once stored. publish
	// (update.go) stores the next one under writeMu, which serializes the
	// writer's routing, apply and store with the rebalance drain — it is the
	// writer lock of the substrate and of every shard index. onEpoch is the
	// OnEpoch consumer and moved publish's reused delta scratch, both guarded
	// by writeMu.
	view    atomic.Pointer[[]*aggindex.Snapshot]
	writeMu sync.Mutex
	onEpoch func(aggindex.EpochDelta)
	moved   []int32

	// applied / batches count the ops and the batches apply took; shardBatches
	// counts, per shard, the published batches that routed it a share.
	applied, batches atomic.Int64
	shardBatches     []atomic.Int64

	// The writer's queue (update.go), guarded by qmu: the batches waiting and
	// their op count, bounded by queueCap (queueOps; in-package tests shrink
	// it before any traffic). work wakes the writer, space a sender blocked
	// on a full queue; stopped closes when the writer exits. closed is set
	// under qmu by Close: it refuses new writes and stops rebalancing.
	qmu      sync.Mutex
	work     sync.Cond
	space    sync.Cond
	queue    []batch
	queued   int
	queueCap int
	closed   atomic.Bool
	stopped  chan struct{}

	// log is the journal every routed op is appended to (nil when not
	// durable), appended its per-append callback, ckptMu the checkpoint-cut
	// serializer; see durable.go. Set once by AttachLog, read by the writer.
	log      *wal.Log
	appended func(n int)
	ckptMu   sync.Mutex

	// Rebalance machinery (see rebalance.go). rebalanceMu serializes
	// re-cuts; bg tracks the auto-kicked goroutine so Close can wait it out.
	// rebalanceThreshold and drainBatch start at the package constants;
	// in-package tests overwrite them before any traffic.
	rebalanceMu        sync.Mutex
	bg                 sync.WaitGroup
	rebalanceThreshold float64
	drainBatch         int

	opsSinceCheck atomic.Int64
	rebalances    atomic.Int64
	cellsMoved    atomic.Int64
	usersMoved    atomic.Int64
	lastImbalance atomic.Uint64 // float64 bits

	// Query counters (see FanoutStats).
	queries       atomic.Int64
	fanouts       atomic.Int64
	shardsQueried atomic.Int64
	shardsEmpty   atomic.Int64

	// testSeam, when non-nil, runs in publish once every shard's share of a
	// batch is applied and before the view is stored — tests set it (before
	// any concurrent use) to query while a writer is parked there.
	testSeam func()
}

// New partitions the dataset across numShards spatially-contiguous shards:
// one shared social substrate (landmarks selected once), and one spatial
// index per shard over the users it owns. The partition assigns grid leaf
// cells to shards along a Z-order (Morton) space-filling curve, cutting the
// curve into segments of approximately equal construction-time occupancy, so
// shards start balanced and stay spatially contiguous along the curve;
// sustained skew re-cuts it online (rebalance.go). Every shard's grid has the
// whole dataset's layout and coordinates, so per-shard scores are identical
// to a single index's.
func New(ds *dataset.Dataset, numShards int, opts core.Options) (*Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("shard: nil dataset")
	}
	opts = opts.WithDefaults()
	layout, err := spatial.NewLayout(ds.PaddedBounds(), opts.GridS, opts.GridLevels)
	if err != nil {
		return nil, fmt.Errorf("shard: grid layout: %w", err)
	}
	numCells := layout.NumCells(layout.LeafLevel())
	if numShards < 1 || numShards > MaxShards {
		return nil, fmt.Errorf("shard: %d shards out of [1,%d]", numShards, MaxShards)
	}
	if numShards > numCells {
		return nil, fmt.Errorf("shard: %d shards exceed %d grid leaf cells", numShards, numCells)
	}

	// The social substrate is built once, whatever the shard count: one
	// landmark selection, one overlay and one set of maintained landmark
	// tables.
	sub, err := core.NewSubstrate(ds, opts)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}

	se := &Engine{
		ds:           ds,
		layout:       layout,
		cellShard:    make([]atomic.Int32, numCells),
		sub:          sub,
		shards:       make([]*aggindex.Index, numShards),
		search:       core.NewSearcher(ds, sub),
		shardBatches: make([]atomic.Int64, numShards),
		owner:        make([]atomic.Int32, ds.NumUsers()),

		rebalanceThreshold: rebalanceThreshold,
		drainBatch:         rebalanceDrainBatch,
		queueCap:           queueOps,
		stopped:            make(chan struct{}),
	}
	se.work.L, se.space.L = &se.qmu, &se.qmu
	for c, s := range partition(layout, ds, numShards) {
		se.cellShard[c].Store(s)
	}

	// Per-shard located masks and the initial owner map.
	leaf := layout.LeafLevel()
	keep := make([][]bool, numShards)
	for s := range keep {
		keep[s] = make([]bool, ds.NumUsers())
	}
	for id := 0; id < ds.NumUsers(); id++ {
		if !ds.Located[id] {
			se.owner[id].Store(-1)
			continue
		}
		s := se.cellShard[layout.CellIndex(leaf, ds.Pts[id])].Load()
		keep[s][id] = true
		se.owner[id].Store(s)
	}

	for s, located := range keep {
		grid, err := spatial.NewGrid(layout, ds.Pts, located)
		if err != nil {
			return nil, fmt.Errorf("shard %d: grid: %w", s, err)
		}
		if se.shards[s], err = aggindex.NewShared(grid, sub); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	se.view.Store(se.snapshots())
	go se.write()
	return se, nil
}

// partition maps every leaf cell to a shard from construction-time
// occupancy; cutCurve does the actual Z-order cut (shared with the online
// rebalance, which feeds it live occupancy instead).
func partition(layout *spatial.Layout, ds *dataset.Dataset, numShards int) []int32 {
	leaf := layout.LeafLevel()
	occ := make([]int64, layout.NumCells(leaf))
	for id := 0; id < ds.NumUsers(); id++ {
		if ds.Located[id] {
			occ[layout.CellIndex(leaf, ds.Pts[id])]++
		}
	}
	return cutCurve(layout, occ, numShards)
}

// cutCurve orders the leaf cells along the Z-order curve and cuts the curve
// into numShards contiguous segments of approximately equal weight, where a
// cell's weight is dominated by its occupancy with a +1 cell-count term so
// empty regions still split evenly.
func cutCurve(layout *spatial.Layout, occ []int64, numShards int) []int32 {
	numCells := len(occ)
	dim := layout.Dim(layout.LeafLevel())
	order := make([]int32, numCells)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return mortonOf(order[a], dim) < mortonOf(order[b], dim)
	})

	// Weighted equal-share cuts along the curve. The occupancy term is scaled
	// by the cell count so it dominates whenever any user exists; the +1 term
	// breaks the all-empty degenerate case into equal cell counts.
	var total int64
	for _, c := range order {
		total += occ[c]*int64(numCells) + 1
	}
	cellShard := make([]int32, numCells)
	var acc int64
	s := int32(0)
	for i, c := range order {
		if int(s) < numShards-1 {
			// Advance to the next shard once this one holds its share, or when
			// exactly one cell must be left for each remaining shard.
			if acc*int64(numShards) >= total*int64(s+1) || numCells-i <= numShards-1-int(s) {
				s++
			}
		}
		cellShard[c] = s
		acc += occ[c]*int64(numCells) + 1
	}
	return cellShard
}

// mortonOf interleaves the bits of a leaf cell's (x, y) grid coordinates —
// the Z-order index that makes curve-contiguous cell runs spatially compact.
func mortonOf(idx int32, dim int) uint64 {
	x, y := uint32(int(idx)%dim), uint32(int(idx)/dim)
	return spread(x) | spread(y)<<1
}

// spread inserts a zero bit between each of the low 32 bits of v.
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// shardOfPoint returns the shard owning the region containing p.
func (se *Engine) shardOfPoint(p spatial.Point) int32 {
	return se.cellShard[se.layout.CellIndex(se.layout.LeafLevel(), p)].Load()
}

// NumShards returns the shard count.
func (se *Engine) NumShards() int { return len(se.shards) }

// OnEpoch installs fn as the epoch-delta consumer (single consumer; nil
// detaches). fn gets one delta per published view — one per write batch or
// rebalance drain batch that changed something — after the view is stored:
// Moved lists every user the batch routed a location op to, a cross-shard
// move once per half; SocialChanged is set when the batch moved the social
// epoch; Snapshot is the view's shard-0 snapshot, whose graph, landmark
// tables and labels every shard of the view shares. fn runs under the writer
// lock, so it must be cheap and must not call back into the engine's writes.
// Moved is valid only during the call.
func (se *Engine) OnEpoch(fn func(aggindex.EpochDelta)) {
	se.writeMu.Lock()
	se.onEpoch = fn
	se.writeMu.Unlock()
}
