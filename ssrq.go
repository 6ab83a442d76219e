// Package ssrq is a Go implementation of the Social and Spatial Ranking
// Query from Mouratidis, Li, Tang and Mamoulis, "Joint Search by Social and
// Spatial Proximity" (IEEE TKDE 27(3), 2015).
//
// Given a query user, SSRQ returns the k users minimizing
//
//	f(u_q, u) = α·p(v_q, v) + (1−α)·d(u_q, u)
//
// where p is normalized shortest-path distance in the weighted social graph
// and d is normalized Euclidean distance between current locations. The
// package serves the paper's processing algorithms — the SFA baseline, the
// twofold search TSA, and the flagship Aggregate Index Search with social
// summaries, computation sharing and delayed evaluation — plus a brute-force
// oracle, over the substrates they need (multi-level grid, landmark/ALT
// machinery) and synthetic geo-social dataset generators standing in for the
// paper's Gowalla/Foursquare/Twitter snapshots. The spatial-first baseline
// SPA and the ablations of the paper's Figs. 8, 10 and 11 run through
// ssrq-bench.
//
// Quick start:
//
//	ds, _ := ssrq.Synthesize("gowalla", 10000, 42)
//	eng, _ := ssrq.NewEngine(ds, nil)
//	res, _ := eng.TopK(queryUser, 10, 0.3)
//	for _, e := range res.Entries {
//	    fmt.Println(e.ID, e.F)
//	}
package ssrq

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
	"ssrq/internal/shard"
	"ssrq/internal/spatial"
	"ssrq/internal/sub"
	"ssrq/internal/wal"
)

// UserID identifies a user; users are dense integers in [0, NumUsers).
type UserID = int32

// Point is a location in 2-D Euclidean space.
type Point = spatial.Point

// Edge is an undirected friendship. Weight is the connection strength —
// smaller means stronger (§3 of the paper); it must be positive, or zero to
// request the paper's degree-product weighting for the whole graph.
type Edge struct {
	U, V   UserID
	Weight float64
}

// Algorithm selects the query processing method.
type Algorithm = core.Algorithm

// The served algorithms. AIS is the paper's best method and the default;
// BruteForce is the by-definition oracle. An engine refuses any other
// Algorithm value with an error naming it.
const (
	SFA        = core.SFA
	TSA        = core.TSA
	AIS        = core.AIS
	BruteForce = core.BruteForce
)

// Algorithms returns the served algorithms in enum order.
func Algorithms() []Algorithm { return slices.Clone(shard.Served) }

// ParseAlgorithm resolves a served algorithm by name, ignoring case: "SFA",
// "TSA", "AIS" or "Brute".
func ParseAlgorithm(name string) (Algorithm, error) {
	names := make([]string, len(shard.Served))
	for i, a := range shard.Served {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
		names[i] = a.String()
	}
	return 0, fmt.Errorf("unknown algorithm %q (%s)", name, strings.Join(names, "|"))
}

// Result is a completed query: entries sorted by ascending ranking value,
// plus execution statistics (pop counts per search structure).
type Result = core.Result

// Entry is one recommended user: the ranking value F and its normalized
// social (P) and spatial (D) components.
type Entry = core.Entry

// Stats instruments one query execution.
type Stats = core.Stats

// DatasetStats summarizes a dataset (the paper's Table 2).
type DatasetStats = dataset.Stats

// Norms are the per-domain normalization constants; raw distance =
// normalized distance × constant.
type Norms = dataset.Norms

// Dataset is a geo-social dataset: a weighted social graph plus current
// user locations (possibly unknown for some users).
type Dataset struct {
	ds *dataset.Dataset
}

// NewDataset builds a dataset from raw parts. locations maps users to raw
// coordinates; users absent from the map are treated as "infinitely far
// away" exactly as the paper prescribes. If every edge carries Weight 0 the
// paper's §6 degree-product weights are derived automatically.
func NewDataset(name string, numUsers int, edges []Edge, locations map[UserID]Point) (*Dataset, error) {
	if numUsers <= 0 {
		return nil, fmt.Errorf("ssrq: numUsers must be positive")
	}
	allZero := true
	for _, e := range edges {
		if e.Weight != 0 {
			allZero = false
			break
		}
	}
	b := graph.NewBuilder(numUsers)
	if allZero && len(edges) > 0 {
		deg := make([]int, numUsers)
		maxDeg := 1
		for _, e := range edges {
			if e.U < 0 || int(e.U) >= numUsers || e.V < 0 || int(e.V) >= numUsers {
				return nil, fmt.Errorf("ssrq: edge (%d,%d) out of range", e.U, e.V)
			}
			deg[e.U]++
			deg[e.V]++
		}
		for _, d := range deg {
			if d > maxDeg {
				maxDeg = d
			}
		}
		denom := float64(maxDeg) * float64(maxDeg)
		for _, e := range edges {
			w := float64(deg[e.U]) * float64(deg[e.V]) / denom
			if w <= 0 {
				w = 1e-9
			}
			if err := b.AddEdge(e.U, e.V, w); err != nil {
				return nil, fmt.Errorf("ssrq: %w", err)
			}
		}
	} else {
		for _, e := range edges {
			if err := b.AddEdge(e.U, e.V, e.Weight); err != nil {
				return nil, fmt.Errorf("ssrq: %w", err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("ssrq: %w", err)
	}
	pts := make([]spatial.Point, numUsers)
	located := make([]bool, numUsers)
	for id, p := range locations {
		if id < 0 || int(id) >= numUsers {
			return nil, fmt.Errorf("ssrq: located user %d out of range", id)
		}
		pts[id] = p
		located[id] = true
	}
	ds, err := dataset.New(name, g, pts, located)
	if err != nil {
		return nil, fmt.Errorf("ssrq: %w", err)
	}
	return &Dataset{ds: ds}, nil
}

// Synthesize generates a paper-substitute dataset: preset is "gowalla",
// "foursquare" or "twitter" (matching Table 2's degree and located-fraction
// profiles; see DESIGN.md for the substitution rationale), or one of the
// literature-derived workload presets "urban" (distance-dependent edge
// probability after Herrera-Yagüe et al.) and "homophily" (hierarchical
// attribute homophily after Watts et al.), both of which also attach
// spatially-clustered user labels for filtered queries.
func Synthesize(preset string, n int, seed int64) (*Dataset, error) {
	var p gen.Preset
	switch preset {
	case "gowalla":
		p = gen.GowallaPreset
	case "foursquare":
		p = gen.FoursquarePreset
	case "twitter":
		p = gen.TwitterPreset
	case "urban":
		p = gen.UrbanPreset
	case "homophily":
		p = gen.HomophilyPreset
	default:
		return nil, fmt.Errorf("ssrq: unknown preset %q (gowalla|foursquare|twitter|urban|homophily)", preset)
	}
	ds, err := p.Dataset(n, seed)
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds}, nil
}

// LoadDataset reads a dataset saved with Save.
func LoadDataset(path string) (*Dataset, error) {
	ds, err := dataset.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds}, nil
}

// Save writes the dataset to path (gob encoding, raw coordinates).
func (d *Dataset) Save(path string) error { return d.ds.SaveFile(path) }

// NumUsers returns the number of users.
func (d *Dataset) NumUsers() int { return d.ds.NumUsers() }

// Located reports whether the user's location is known.
func (d *Dataset) Located(id UserID) bool { return d.ds.Located[id] }

// Location returns the user's raw coordinates as of dataset construction;
// ok is false when unknown. Moves applied through an Engine do not write
// back to the dataset — use Engine.UserLocation for the live position.
func (d *Dataset) Location(id UserID) (Point, bool) {
	if !d.ds.Located[id] {
		return Point{}, false
	}
	p := d.ds.Pts[id]
	return Point{X: p.X * d.ds.Norms.Spatial, Y: p.Y * d.ds.Norms.Spatial}, true
}

// SetLabels attaches a per-user label bitmask (bit i set = user carries
// label i, up to 64 labels) used by filtered queries. Labels are a fixed
// attribute of the dataset: set them before building an engine. Pass nil to
// clear. len(labels) must equal NumUsers.
func (d *Dataset) SetLabels(labels []uint64) error { return d.ds.SetLabels(labels) }

// Labels returns the user's label bitmask (0 when unlabeled).
func (d *Dataset) Labels(id UserID) uint64 { return d.ds.LabelsOf(id) }

// LabelMask builds a filter bitmask from label indices in [0, 64). Use with
// Params.Filter: a filtered query reports only users carrying at least one
// of the requested labels.
func LabelMask(indices ...int) (uint64, error) {
	var m uint64
	for _, i := range indices {
		if i < 0 || i > 63 {
			return 0, fmt.Errorf("ssrq: label index %d out of [0,64)", i)
		}
		m |= 1 << uint(i)
	}
	return m, nil
}

// Stats returns Table 2-style statistics.
func (d *Dataset) Stats() DatasetStats { return d.ds.Stats() }

// Norms returns the normalization constants.
func (d *Dataset) Norms() Norms { return d.ds.Norms }

// Options configure an Engine (the paper's system parameters, Table 3).
// The zero value of every field selects the paper's default.
type Options struct {
	// GridS is the grid partitioning granularity s (default 10).
	GridS int
	// GridLevels is the number of stored grid levels (default 2).
	GridLevels int
	// NumLandmarks is M (default 8).
	NumLandmarks int
	// LandmarkStrategy: 0 = farthest (paper), 1 = highest-degree, 2 = random.
	LandmarkStrategy int
	// Seed drives randomized preprocessing.
	Seed int64
	// Shards is how many spatially-contiguous shards the users are split
	// across (space-filling-curve assignment of grid regions), each owning
	// its own grid, aggregate index and epochs. It is a count, not
	// a mode: 0 or 1 is the same engine with one shard. With more, a query
	// is still one search, over all shards' snapshots at once, and results
	// are exactly the one-shard engine's. The social dimension (friendship
	// graph, landmark tables, their maintenance) is shared, not replicated:
	// one substrate serves every shard, an edge update applies once, and a
	// query's social search runs once, so sharding scales the spatial write
	// path at a social memory, edge-churn and query cost independent of
	// Shards.
	Shards int
	// Durability, when non-nil, journals every world mutation to a
	// write-ahead log in Durability.Dir and recovers state from it on
	// startup (newest checkpoint + tail replay). See DurabilityOptions
	// and OpenOrRecover in durability.go.
	Durability *DurabilityOptions
}

// Engine answers SSRQ queries over one dataset. The engine is safe for
// concurrent use and queries are lock-free: each query atomically loads the
// current index epoch (grid membership, coordinates and AIS summaries
// published together as one immutable snapshot) and runs entirely against
// it, so location updates never block queries and queries never block
// updates. Every update is a batch on the engine's one write queue, applied
// in queue order by one writer: synchronous calls (MoveUser, ApplyUpdates,
// AddFriend, ...) return once their batch is applied, durable and published;
// asynchronous ones (ApplyUpdatesAsync, ApplyEdgeUpdatesAsync) return once
// it is queued, and Flush is the read-your-writes barrier. Concurrent
// writers share epochs and, when durable, commits.
//
// The engine is always the routed one (internal/shard) over Options.Shards
// spatial shards, one by default: each shard owns a complete index over its
// region's users, a query is one search over every shard's snapshot, and
// updates route to the owning shard — same API, same results, S-way spatial
// write scaling.
type Engine struct {
	eng *shard.Engine
	d   *Dataset

	// subs is the continuous-subscription layer, created lazily on the
	// first Subscribe call so query-only engines pay nothing for it.
	subMu sync.Mutex
	subs  *sub.Engine

	// Durability state (see durability.go); all zero for a non-durable
	// engine. log outlives eng.Close so the final drain is journaled.
	log         *wal.Log
	recovered   *RecoveryInfo
	ckptEvery   int64
	ckptBusy    atomic.Bool // a background cut is queued or running: skip, don't queue another
	opsSince    atomic.Int64
	walWG       sync.WaitGroup
	walClosed   atomic.Bool
	walCloseErr atomic.Pointer[error]
}

// NewEngine builds all indexes (grid, social summaries, landmark tables).
// opts may be nil for paper defaults.
func NewEngine(d *Dataset, opts *Options) (*Engine, error) {
	if d == nil {
		return nil, fmt.Errorf("ssrq: nil dataset")
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	copts := core.Options{
		GridS:            o.GridS,
		GridLevels:       o.GridLevels,
		NumLandmarks:     o.NumLandmarks,
		LandmarkStrategy: landmark.Strategy(o.LandmarkStrategy),
		Seed:             o.Seed,
	}
	eng, err := shard.New(d.ds, max(1, o.Shards), copts)
	if err != nil {
		return nil, err
	}
	e := &Engine{eng: eng, d: d}
	if o.Durability != nil {
		if err := e.attachDurability(*o.Durability); err != nil {
			e.eng.Close()
			return nil, err
		}
	}
	return e, nil
}

// NumShards returns the number of spatial shards (at least 1).
func (e *Engine) NumShards() int { return e.eng.NumShards() }

// ShardStat is one shard's live state (see ShardStats).
type ShardStat = shard.ShardStat

// FanoutStats counts how the engine's queries spanned the shards.
type FanoutStats = shard.FanoutStats

// ShardStats returns a point-in-time view of every shard.
func (e *Engine) ShardStats() []ShardStat { return e.eng.ShardStats() }

// FanoutStats returns the accumulated query counters (with one shard every
// query counts one shard queried; ShardsPruned is always 0).
func (e *Engine) FanoutStats() FanoutStats { return e.eng.FanoutStats() }

// RebalanceStats counts the engine's elastic re-cuts.
type RebalanceStats = shard.RebalanceStats

// RebalanceStats returns the rebalance counters (all zero with one shard,
// whose single partition never moves).
func (e *Engine) RebalanceStats() RebalanceStats { return e.eng.RebalanceStats() }

// Imbalance reports the current occupancy imbalance (max/mean located users
// per shard; 1 with one shard).
func (e *Engine) Imbalance() float64 { return e.eng.Imbalance() }

// Dataset returns the engine's dataset.
func (e *Engine) Dataset() *Dataset { return e.d }

// TopK answers an SSRQ with the paper's best algorithm (AIS): the k users
// minimizing f = α·p + (1−α)·d. alpha must lie strictly in (0, 1).
func (e *Engine) TopK(q UserID, k int, alpha float64) (*Result, error) {
	return e.eng.Query(core.AIS, q, core.Params{K: k, Alpha: alpha})
}

// TopKWith answers an SSRQ with a specific served algorithm.
func (e *Engine) TopKWith(algo Algorithm, q UserID, k int, alpha float64) (*Result, error) {
	return e.eng.Query(algo, q, core.Params{K: k, Alpha: alpha})
}

// Query answers an SSRQ with explicit parameters — the way to run a
// label-filtered query (set Params.Filter, e.g. via LabelMask). With a
// nonzero filter only users carrying at least one requested label are
// reported; the engines prune whole index subtrees (and, sharded, whole
// shards) whose aggregated label masks miss the filter.
func (e *Engine) Query(algo Algorithm, q UserID, prm Params) (*Result, error) {
	return e.eng.Query(algo, q, prm)
}

// Params are the ranking parameters of one query.
type Params = core.Params

// UserLocation returns a user's current raw coordinates as of the latest
// published epoch, so it is safe concurrently with movers (unlike reading
// the Dataset directly). ok is false when the location is unknown.
func (e *Engine) UserLocation(id UserID) (Point, bool) {
	p, ok := e.eng.UserLocation(id)
	if !ok {
		return Point{}, false
	}
	norm := e.d.ds.Norms.Spatial
	return Point{X: p.X * norm, Y: p.Y * norm}, true
}

// DatasetStats returns Table 2-style statistics; NumLocated and NumEdges
// reflect the latest published epoch (they vary as movers and edge churners
// run).
func (e *Engine) DatasetStats() DatasetStats {
	st := e.d.ds.Stats()
	st.NumLocated = e.eng.NumLocated()
	if g := e.eng.LiveSocialGraph(); g != nil {
		st.NumEdges = g.NumEdges()
		st.AvgDegree = g.AvgDegree()
	}
	return st
}

// UpdateStats reports the state of the epoch/update pipeline: published
// epoch number, snapshot age, and the write queue's pending and applied
// counts (CoalescedUpdates is always 0).
type UpdateStats = core.UpdateStats

// UpdateStats returns a point-in-time view of the update pipeline.
func (e *Engine) UpdateStats() UpdateStats { return e.eng.UpdateStats() }

// Update is one bulk location update in raw coordinates: a move (Remove
// false) or a location removal (Remove true, To ignored).
type Update struct {
	ID     UserID
	To     Point
	Remove bool
}

// normalize converts a raw-coordinate update to the engine's internal form.
func (e *Engine) normalize(u Update) core.Update {
	norm := e.d.ds.Norms.Spatial
	return core.Update{ID: u.ID, To: Point{X: u.To.X / norm, Y: u.To.Y / norm}, Remove: u.Remove}
}

// MoveUser updates a user's current location (raw coordinates), maintaining
// the spatial grid and the AIS social summaries incrementally (§5.1) and
// publishing the change before returning; concurrent writers share its
// epoch. Safe concurrently with queries and other updates; never blocks
// queries. Rejects out-of-range users and NaN/±Inf coordinates.
func (e *Engine) MoveUser(id UserID, to Point) error {
	return e.eng.ApplyUpdates([]core.Update{e.normalize(Update{ID: id, To: to})})
}

// ApplyUpdates validates and applies a batch of raw-coordinate updates in
// one published epoch — the cheapest way to ingest bulk location data.
// On a validation error nothing is applied. ups is not retained: the caller
// may reuse it once the call returns.
func (e *Engine) ApplyUpdates(ups []Update) error {
	return e.eng.ApplyUpdates(e.normalizeAll(ups))
}

// ApplyUpdatesAsync validates a batch of raw-coordinate updates and queues
// it, returning without waiting for it to be published; Flush is the
// read-your-writes barrier. All or nothing: on a validation error, or
// ErrClosed, nothing is queued. A full queue blocks the call
// (backpressure). ups is not retained.
func (e *Engine) ApplyUpdatesAsync(ups []Update) error {
	return e.eng.ApplyUpdatesAsync(e.normalizeAll(ups))
}

func (e *Engine) normalizeAll(ups []Update) []core.Update {
	ops := make([]core.Update, len(ups))
	for i, u := range ups {
		ops[i] = e.normalize(u)
	}
	return ops
}

// Flush blocks until every update queued before the call has been applied
// and published.
func (e *Engine) Flush() { e.eng.Flush() }

// ErrClosed is returned by every update, synchronous or asynchronous, made
// after Close.
var ErrClosed = shard.ErrClosed

// Close tears down the subscription layer — every live Subscription's
// notify channel is closed (terminating SSE streams and other consumers)
// and the in-flight evaluation round is waited out — then applies whatever
// the write queue holds and stops it, and seals the log. Idempotent;
// queries keep working after Close, and every update returns ErrClosed.
func (e *Engine) Close() {
	e.subMu.Lock()
	subs := e.subs
	e.subs = nil
	e.subMu.Unlock()
	if subs != nil {
		subs.Close()
	}
	// Stop accepting auto-checkpoints and wait out an in-flight one before
	// the engine drains; the WAL stays open through eng.Close so the ops
	// the drain applies are journaled, then seals last.
	e.walClosed.Store(true)
	e.walWG.Wait()
	e.eng.Close()
	if e.log != nil {
		if err := e.log.Close(); err != nil {
			// The engine is already down; surface the seal failure in
			// stats (Close has no error to return, matching the APIs
			// below it).
			e.walCloseErr.Store(&err)
		}
	}
}

// Subscription is a standing top-k query (see Subscribe).
type Subscription = sub.Subscription

// SubscriptionDelta is the change between two consecutive reads of a
// subscription's result (see Subscription.Delta).
type SubscriptionDelta = sub.Delta

// SubscriptionStats are the subscription layer's counters; the skip rate
// is Skips / (Skips + Evals).
type SubscriptionStats = sub.Stats

// Subscribe registers a standing top-k query for user q: instead of
// re-running TopK, the engine watches every published epoch, proves via
// the batch's touched-user set and Lemma-2 lower bounds when q's result
// cannot have changed (the overwhelmingly common case, skipped silently),
// and re-evaluates only otherwise. Consumers wait on the subscription's
// Notify channel and drain changes with Delta (entries carry normalized
// scores, exactly like TopK results), or poll Result. Close the
// subscription to stop; Engine.Close tears down all of them. Blocks until
// the initial result is evaluated.
func (e *Engine) Subscribe(q UserID, k int, alpha float64) (*Subscription, error) {
	return e.SubscribeParams(q, Params{K: k, Alpha: alpha})
}

// SubscribeParams is Subscribe with explicit parameters — the way to
// register a label-filtered standing query (set Params.Filter).
func (e *Engine) SubscribeParams(q UserID, prm Params) (*Subscription, error) {
	if q < 0 || int(q) >= e.d.NumUsers() {
		return nil, fmt.Errorf("ssrq: subscribe user %d out of range [0,%d)", q, e.d.NumUsers())
	}
	e.subMu.Lock()
	if e.subs == nil {
		e.subs = sub.New(e.eng)
	}
	subs := e.subs
	e.subMu.Unlock()
	return subs.SubscribeParams(q, prm)
}

// SyncSubscriptions is the subscription read-your-writes barrier: it
// flushes the write queue and then blocks until every epoch
// published before the call has been through a subscription evaluation
// round, so every subscription's Result reflects all prior updates.
func (e *Engine) SyncSubscriptions() {
	e.eng.Flush()
	e.subMu.Lock()
	subs := e.subs
	e.subMu.Unlock()
	if subs != nil {
		subs.Sync()
	}
}

// SubscriptionStats returns the subscription layer's counters (zero value
// when nothing ever subscribed).
func (e *Engine) SubscriptionStats() SubscriptionStats {
	e.subMu.Lock()
	subs := e.subs
	e.subMu.Unlock()
	if subs == nil {
		return SubscriptionStats{}
	}
	return subs.Stats()
}

// RemoveUserLocation marks the user's whereabouts unknown; the user becomes
// "infinitely far away" and leaves all spatial structures.
func (e *Engine) RemoveUserLocation(id UserID) error {
	return e.eng.ApplyUpdates([]core.Update{{ID: id, Remove: true}})
}

// EdgeUpdate is one bulk friendship update in raw weight units: an upsert
// (Remove false — insert the edge or change its weight) or a deletion
// (Remove true, Weight ignored).
type EdgeUpdate struct {
	U, V   UserID
	Weight float64
	Remove bool
}

// normalizeEdge converts a raw-weight edge update to the engine's internal
// normalized form.
func (e *Engine) normalizeEdge(u EdgeUpdate) core.Update {
	op := core.Update{U: u.U, V: u.V}
	if u.Remove {
		op.Kind = core.OpEdgeRemove
	} else {
		op.Kind = core.OpEdgeUpsert
		op.W = u.Weight / e.d.ds.Norms.Social
	}
	return op
}

// AddFriend inserts the undirected friendship (u, v) with raw weight w
// (smaller = stronger, must be positive and finite), or changes its weight
// when the edge already exists. The social graph, the landmark tables and
// the AIS summaries move together as one published epoch, so queries never
// observe a half-applied edge. Never blocks queries.
func (e *Engine) AddFriend(u, v UserID, w float64) error {
	return e.ApplyEdgeUpdates([]EdgeUpdate{{U: u, V: v, Weight: w}})
}

// RemoveFriend deletes the undirected friendship (u, v); a no-op when the
// edge is absent. Never blocks queries.
func (e *Engine) RemoveFriend(u, v UserID) error {
	return e.ApplyEdgeUpdates([]EdgeUpdate{{U: u, V: v, Remove: true}})
}

// ApplyEdgeUpdates validates and applies a batch of raw-weight edge updates
// in one published epoch. On a validation error nothing is applied. ups
// is not retained: the caller may reuse it once the call returns.
func (e *Engine) ApplyEdgeUpdates(ups []EdgeUpdate) error {
	return e.eng.ApplyUpdates(e.normalizeEdges(ups))
}

// ApplyEdgeUpdatesAsync validates a batch of raw-weight edge updates and
// queues it on the same queue as ApplyUpdatesAsync, so one Flush is the
// read-your-writes barrier for both dimensions. All or nothing, like
// ApplyUpdatesAsync. ups is not retained.
func (e *Engine) ApplyEdgeUpdatesAsync(ups []EdgeUpdate) error {
	return e.eng.ApplyUpdatesAsync(e.normalizeEdges(ups))
}

func (e *Engine) normalizeEdges(ups []EdgeUpdate) []core.Update {
	ops := make([]core.Update, len(ups))
	for i, u := range ups {
		ops[i] = e.normalizeEdge(u)
	}
	return ops
}

// SocialStats is a point-in-time view of the dynamic social graph: edge
// counts, overlay/compaction state and landmark maintenance work
// (incremental repairs, and tables recomputed at the end of a large batch).
type SocialStats = core.SocialStats

// SocialStats reports the social dimension's counters.
func (e *Engine) SocialStats() SocialStats { return e.eng.SocialStats() }

// SpatialKNN returns the k spatially-nearest located users to q (a pure
// one-domain query, for comparison with SSRQ — cf. Fig. 7b); k must be ≥ 1.
// Lock-free and safe concurrently with location updates: the search runs
// against one published view.
func (e *Engine) SpatialKNN(q UserID, k int) ([]Entry, error) {
	nbrs, err := e.eng.SpatialKNN(q, k)
	if err != nil {
		return nil, fmt.Errorf("ssrq: %w", err)
	}
	out := make([]Entry, len(nbrs))
	for i, nb := range nbrs {
		out[i] = Entry{ID: nb.ID, F: nb.Dist, D: nb.Dist}
	}
	return out, nil
}

// SocialKNN returns the k socially-closest users to q (pure one-domain); q
// must be a user and k ≥ 1. Lock-free and safe concurrently with edge churn:
// the expansion runs against the latest published social epoch.
func (e *Engine) SocialKNN(q UserID, k int) ([]Entry, error) {
	if n := e.d.NumUsers(); q < 0 || int(q) >= n {
		return nil, fmt.Errorf("ssrq: user %d out of range [0,%d)", q, n)
	}
	if k < 1 {
		return nil, fmt.Errorf("ssrq: k = %d must be ≥ 1", k)
	}
	it := graph.NewDijkstraIterator(e.eng.LiveSocialGraph(), q)
	var out []Entry
	for len(out) < k {
		v, p, ok := it.Next()
		if !ok {
			break
		}
		if v != q {
			out = append(out, Entry{ID: v, F: p, P: p})
		}
	}
	return out, nil
}
