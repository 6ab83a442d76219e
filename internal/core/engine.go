package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"ssrq/internal/aggindex"
	"ssrq/internal/dataset"
	"ssrq/internal/fof"
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
	"ssrq/internal/spatial"
)

// Algorithm selects the SSRQ processing method. A single-index Engine runs
// every value; the served path (shard.Engine) answers only SFA, SPA, TSA, AIS
// and BruteForce — the rest are the baselines and ablations of Figs. 8, 10
// and 11, run where the figures are drawn.
type Algorithm int

const (
	// SFA is the Social First Approach (§4.1).
	SFA Algorithm = iota
	// SPA is the Spatial First Approach (§4.1).
	SPA
	// TSA is the landmark-aided Twofold Search Approach with round-robin
	// probing (§4.2) — the "TSA" of the experiments.
	TSA
	// TSAQC is TSA with Quick-Combine probing in its first phase.
	TSAQC
	// TSANoLandmark is TSA without the landmark candidate pruning, kept for
	// ablation (the paper "disregards it because it consistently performs
	// worse").
	TSANoLandmark
	// AISBID is Algorithm 2 evaluating every candidate with a fresh
	// bidirectional ALT search ([25]) — no computation sharing (Fig. 10).
	AISBID
	// AISMinus is AIS with distance and forward-heap caching but without
	// the delayed evaluation strategy (Fig. 10's AIS⁻).
	AISMinus
	// AIS is the full aggregate index search with every optimization (§5).
	AIS
	// AISCache is the §5.4 pre-computation method: a t-nearest social list
	// drives an SFA-style scan and falls back to AIS on exhaustion.
	AISCache
	// BruteForce computes one full Dijkstra and scans all users; the
	// correctness reference.
	BruteForce
)

var algoNames = map[Algorithm]string{
	SFA: "SFA", SPA: "SPA", TSA: "TSA", TSAQC: "TSA-QC", TSANoLandmark: "TSA-NL",
	AISBID: "AIS-BID", AISMinus: "AIS-", AIS: "AIS", AISCache: "AIS-Cache",
	BruteForce: "Brute",
}

func (a Algorithm) String() string {
	if n, ok := algoNames[a]; ok {
		return n
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configure engine construction (system parameters of Table 3).
type Options struct {
	// GridS is the partitioning granularity s (default 10).
	GridS int
	// GridLevels is the number of stored grid levels (default 2: the paper
	// keeps the lowest two levels of a three-level hierarchy).
	GridLevels int
	// NumLandmarks is M (default 8, the paper's fine-tuned value).
	NumLandmarks int
	// LandmarkStrategy defaults to the farthest selection of [25].
	LandmarkStrategy landmark.Strategy
	// Seed drives randomized preprocessing choices.
	Seed int64
}

// WithDefaults returns a copy with every zero field replaced by its default.
// Compositions that must agree with an engine's derived geometry (the routed
// engine's partition layout, for one) resolve the options the same way the
// constructors here do before deriving anything from them.
func (o Options) WithDefaults() Options {
	if o.GridS == 0 {
		o.GridS = 10
	}
	if o.GridLevels == 0 {
		o.GridLevels = 2
	}
	if o.NumLandmarks == 0 {
		o.NumLandmarks = 8
	}
	return o
}

// Update is one world update routed through the engine: a location op — a
// move (Remove false) or a location removal (Remove true), coordinates
// normalized — or a social edge op (Kind OpEdgeUpsert/OpEdgeRemove with
// U/V/W set, weight normalized).
type Update = aggindex.Op

// Update kinds, re-exported for callers assembling mixed batches.
const (
	OpLocation   = aggindex.OpLocation
	OpEdgeUpsert = aggindex.OpEdgeUpsert
	OpEdgeRemove = aggindex.OpEdgeRemove
)

// Engine binds a dataset to its indexes and answers SSRQ queries. The
// engine is safe for concurrent use and queries are lock-free: Query loads
// the current index epoch (grid membership, coordinates and AIS summaries
// published atomically as one immutable snapshot) with a single atomic
// pointer read and runs entirely against it, so location updates never block
// queries and every query observes one consistent version of the world.
// Updates go through ApplyUpdates, one published epoch per call, serialized
// under the engine's writer lock.
//
// An Engine is one spatial index and a private social substrate, with a
// Searcher embedded for the queries: the single-index reference the
// differential tests and the benchmark's layer probes compare against, and
// the engine the figure-only variants run on. The served engine
// (shard.Engine) drives S indexes over one substrate with a Searcher of its
// own.
type Engine struct {
	*Searcher
	sub  *aggindex.Social
	grid *spatial.Grid
	agg  *aggindex.Index
	opts Options

	// writeMu serializes ApplyUpdates: it is the writer lock of the index,
	// its grid and the substrate.
	writeMu sync.Mutex
}

// Searcher runs the paper's algorithms over the views it is handed
// (QueryOn) and validates updates against the dataset. It holds everything a
// query needs beside the view: the dataset, the pooled per-query scratch and
// the §5.4 memo. It holds no index and applies nothing.
type Searcher struct {
	ds    *dataset.Dataset
	cache *socialCache

	pools sync.Pool // *queryPools, reused across queries
}

// queryPools are the per-query scratch structures, checked out once per
// QueryOn and reused across queries so the serving path allocates (almost)
// nothing: A* pools, the shared forward Dijkstra, the spatial NN stream, the
// interim result, TSA's candidate set, AIS's two heaps and the
// GraphDist submodule, plus flat float scratch for landmark vectors and
// batched Lemma-2 bounds. Everything here is arena-like state that a single
// query arms via a Reset and abandons on return; QueryOn copies the final
// entries out before the pools go back, so no pooled memory escapes.
type queryPools struct {
	rev *graph.AStarPool
	fwd *graph.AStarPool // AIS-BID's forward search, built on its first use

	soc      graph.DijkstraIterator // forward social expansion (SFA/SPA/TSA, GraphDist)
	nn       *spatial.NNIterator    // incremental spatial NN stream (SPA/TSA)
	top      topK                   // interim result R
	cand     candidateSet           // TSA's partially-evaluated set Q
	ais      aisRun                 // AIS's heaps and per-query state
	gd       graphDist              // §5.2 shared-distance submodule
	childBuf []int32                // grid child-index scratch
	sns      []*aggindex.Snapshot   // the query's view (copied in by QueryOn)
	grids    []*spatial.Snapshot    // the view's grids, for the NN stream
	qvec     []float64              // query landmark vector
	cellLow  []float64              // batched Lemma-2 bounds, one per top-level cell
}

// NewSubstrate builds the social substrate over the dataset's friendship
// graph the way every engine flavour needs it: landmarks selected once, the
// edge overlay and dynamic tables. NewEngine owns one privately; the sharded
// engine shares one across its shards.
func NewSubstrate(ds *dataset.Dataset, opts Options) (*aggindex.Social, error) {
	opts = opts.WithDefaults()
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	m := min(opts.NumLandmarks, ds.NumUsers())
	lm, err := landmark.Select(ds.G, m, opts.LandmarkStrategy, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: selecting landmarks: %w", err)
	}
	sub, err := aggindex.NewSocialSubstrate(lm, ds.G, aggindex.Config{Labels: ds.Labels})
	if err != nil {
		return nil, fmt.Errorf("core: social substrate: %w", err)
	}
	return sub, nil
}

// NewSearcher builds the query state over ds.
func NewSearcher(ds *dataset.Dataset) *Searcher {
	e := &Searcher{ds: ds, cache: newSocialCache(defaultCacheT)}
	n := ds.NumUsers()
	e.pools.New = func() any {
		return &queryPools{
			rev: graph.NewAStarPool(n),
			nn:  spatial.NewNNIterator(),
		}
	}
	return e
}

// NewEngine builds all indexes over the dataset: a private social substrate
// and the spatial side on top of it.
func NewEngine(ds *dataset.Dataset, opts Options) (*Engine, error) {
	sub, err := NewSubstrate(ds, opts)
	if err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	layout, err := spatial.NewLayout(ds.PaddedBounds(), opts.GridS, opts.GridLevels)
	if err != nil {
		return nil, fmt.Errorf("core: grid layout: %w", err)
	}
	grid, err := spatial.NewGrid(layout, ds.Pts, ds.Located)
	if err != nil {
		return nil, fmt.Errorf("core: grid: %w", err)
	}
	agg, err := aggindex.NewShared(grid, sub)
	if err != nil {
		return nil, fmt.Errorf("core: aggregate index: %w", err)
	}
	return &Engine{Searcher: NewSearcher(ds), sub: sub, grid: grid, agg: agg, opts: opts}, nil
}

// Dataset returns the engine's dataset. Note that the dataset's graph and
// locations are construction-time state: live social structure comes from
// Snapshot().SocialGraph(), live locations from Snapshot().Grid().
func (e *Engine) Dataset() *dataset.Dataset { return e.ds }

// Landmarks returns the landmark set of the latest published epoch (tables
// track edge churn and are exact on that epoch's graph).
func (e *Engine) Landmarks() *landmark.Set { return e.agg.Snapshot().Landmarks() }

// Grid returns the spatial grid index (writer-side handle; concurrent
// readers should use Snapshot).
func (e *Engine) Grid() *spatial.Grid { return e.grid }

// Snapshot returns the current index epoch: grid membership, coordinates
// and AIS summaries as one immutable, lock-free view.
func (e *Engine) Snapshot() *aggindex.Snapshot { return e.agg.Snapshot() }

// Options returns the options the engine was built with (defaults filled).
func (e *Engine) Options() Options { return e.opts }

// ValidateUpdate rejects malformed updates before they can reach an index:
// out-of-range users, non-finite coordinates (a NaN point would silently
// corrupt grid membership via CellIndex clamping), and malformed edge ops
// (self-loops, non-positive or non-finite weights).
// Exported so compositions that route updates across indexes (the sharded
// engine) can reject a whole batch before any routing decision is made.
func (e *Searcher) ValidateUpdate(u Update) error {
	n := e.ds.NumUsers()
	switch u.Kind {
	case aggindex.OpLocation:
		if u.ID < 0 || int(u.ID) >= n {
			return fmt.Errorf("core: user %d out of range [0,%d)", u.ID, n)
		}
		if !u.Remove && !u.To.IsFinite() {
			return fmt.Errorf("core: non-finite coordinates (%v, %v) for user %d", u.To.X, u.To.Y, u.ID)
		}
		return nil
	case aggindex.OpEdgeUpsert, aggindex.OpEdgeRemove:
		if u.U < 0 || int(u.U) >= n || u.V < 0 || int(u.V) >= n {
			return fmt.Errorf("core: edge (%d,%d) out of range [0,%d)", u.U, u.V, n)
		}
		if u.U == u.V {
			return fmt.Errorf("core: self-loop on user %d", u.U)
		}
		if u.Kind == aggindex.OpEdgeUpsert && (!(u.W > 0) || math.IsInf(u.W, 1) || math.IsNaN(u.W)) {
			return fmt.Errorf("core: edge (%d,%d) weight %v must be positive and finite", u.U, u.V, u.W)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown update kind %d", u.Kind)
	}
}

// ApplyUpdates validates and applies a batch of updates as a single
// published epoch (the cheapest way to ingest bulk location data). On a
// validation error nothing is applied.
func (e *Engine) ApplyUpdates(ops []Update) error {
	for _, u := range ops {
		if err := e.ValidateUpdate(u); err != nil {
			return err
		}
	}
	ixs, locs := [1]*aggindex.Index{e.agg}, [1][]Update{ops}
	e.writeMu.Lock()
	aggindex.Apply(e.sub, ops, ixs[:], locs[:])
	e.writeMu.Unlock()
	return nil
}

// Close is a no-op: the engine runs no goroutine of its own. It remains for
// callers that close every engine they build.
func (e *Engine) Close() {}

// Query answers an SSRQ for query user q. Lock-free and safe for unlimited
// concurrency: the query loads the published index epoch once and executes
// entirely against that snapshot, so concurrent location updates neither
// block it nor bleed into its view.
func (e *Engine) Query(algo Algorithm, q graph.VertexID, prm Params) (*Result, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	sn := e.agg.Snapshot()
	g := sn.Grid()
	if q < 0 || int(q) >= g.NumUsers() {
		return nil, fmt.Errorf("core: query user %d out of range [0,%d)", q, g.NumUsers())
	}
	if !g.Located(q) {
		return nil, fmt.Errorf("core: query user %d has no known location", q)
	}
	sns := [1]*aggindex.Snapshot{sn}
	return e.QueryOn(sns[:], algo, q, g.Point(q), prm)
}

// QueryOn answers an SSRQ against an explicit view and query location — the
// primitive both engines are built on. The view is one or more
// snapshots of one layout at one social epoch (DESIGN.md §5.6), read as one
// forest: the spatial side searches all of their grids at once, and the
// social side — one forward search, one GraphDist, one landmark vector —
// runs once over the graph they share. Unlike Query it does not require q to
// be located in the view: qpt stands in for the query location. The view
// must locate each user in at most one of its snapshots, as the sharded
// engine's views do: AIS scores a user at the first snapshot found to locate
// it (DESIGN.md §4.12). The slice is read, not retained.
func (e *Searcher) QueryOn(sns []*aggindex.Snapshot, algo Algorithm, q graph.VertexID, qpt spatial.Point, prm Params) (*Result, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if len(sns) == 0 {
		return nil, fmt.Errorf("core: empty snapshot view")
	}
	if n := sns[0].Grid().NumUsers(); q < 0 || int(q) >= n {
		return nil, fmt.Errorf("core: query user %d out of range [0,%d)", q, n)
	}
	res := &Result{Query: q, Params: prm}
	st := &res.Stats
	// Check out the per-query scratch once for the whole execution; every
	// algorithm arms what it needs from it. The pooled entries are copied into
	// the Result before the scratch goes back (the deferred put runs last), so
	// nothing pooled escapes the query.
	p := e.getPools()
	defer e.putPools(p)
	// Search the pooled copy, so the caller's slice — Query's is a stack
	// array — never escapes to the heap (the copy is a variable of its own:
	// escape analysis does not tell apart two values of one variable).
	view := append(p.sns[:0], sns...)
	p.sns = view
	var entries []Entry
	switch algo {
	case SFA:
		entries = e.runSFA(view, q, qpt, prm, st, p)
	case SPA:
		entries = e.runSPA(view, q, qpt, prm, st, p)
	case TSA:
		entries = e.runTSA(view, q, qpt, prm, st, p, tsaConfig{prune: true})
	case TSAQC:
		entries = e.runTSA(view, q, qpt, prm, st, p, tsaConfig{prune: true, quickCombine: true})
	case TSANoLandmark:
		entries = e.runTSA(view, q, qpt, prm, st, p, tsaConfig{})
	case AISBID:
		entries = e.runAIS(view, q, qpt, prm, st, p, aisConfig{sharing: false, delayed: false})
	case AISMinus:
		entries = e.runAIS(view, q, qpt, prm, st, p, aisConfig{sharing: true, delayed: false})
	case AIS:
		entries = e.runAIS(view, q, qpt, prm, st, p, aisConfig{sharing: true, delayed: true})
	case AISCache:
		entries = e.runAISCache(view, q, qpt, prm, st, p)
	case BruteForce:
		entries = e.runBrute(view, q, qpt, prm, st)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", algo)
	}
	// make+copy rather than append(nil, ...): an empty result must stay a
	// non-nil slice (it serializes as [] over HTTP, not null).
	res.Entries = make([]Entry, len(entries))
	copy(res.Entries, entries)
	return res, nil
}

// SocialStats is a point-in-time view of the social dimension: edge counts,
// overlay shape and landmark-maintenance work.
type SocialStats = aggindex.SocialStats

// UpdateStats reports the state of the epoch/update pipeline, the numbers
// the HTTP /stats endpoint surfaces for the routed engine (shard.Engine).
type UpdateStats struct {
	// Epoch is the published index version (0 = construction state).
	Epoch uint64
	// SocialEpoch is the published social graph version (0 = construction
	// graph, +1 per batch containing effective edge ops).
	SocialEpoch uint64
	// SnapshotAge is how long ago the current epoch was published.
	SnapshotAge time.Duration
	// PendingUpdates counts ops queued but not yet taken by the writer.
	PendingUpdates int64
	// AppliedUpdates counts the ops the writer applied.
	AppliedUpdates int64
	// AppliedBatches counts the units that applied them: one per turn of
	// the writer, which takes every batch queued at that moment.
	AppliedBatches int64
	// CoalescedUpdates is always 0: no op is dropped for a newer one. The
	// field stays for readers that still report it.
	CoalescedUpdates int64
}

// AddFriend inserts (or reweights) the undirected friendship (u,v) with
// normalized weight w and publishes the change as one epoch before
// returning: the graph, the landmark tables and the affected cell summaries
// all move together, so queries never observe a half-applied edge. Never
// blocks queries.
func (e *Engine) AddFriend(u, v int32, w float64) error {
	return e.ApplyUpdates([]Update{{Kind: aggindex.OpEdgeUpsert, U: u, V: v, W: w}})
}

// FoFIndex always returns nil: no engine builds the friends-of-friends
// index any more (DESIGN.md §4.13). It remains because bench/layers.go
// reads it.
func (e *Searcher) FoFIndex() *fof.Index { return nil }

func (e *Searcher) getPools() *queryPools { return e.pools.Get().(*queryPools) }
func (e *Searcher) putPools(p *queryPools) {
	// Drop the view so a pooled scratch does not pin superseded epochs.
	clear(p.sns)
	clear(p.grids)
	e.pools.Put(p)
}
