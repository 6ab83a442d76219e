// The shared social substrate: one mutable social world — edge overlay and
// dynamic landmark tables — publishing one immutable epoch-tagged
// SocialSnapshot that any number of aggregate indexes consume.
//
// Before the substrate existed every Index owned its own overlay + landmark
// copies, so a spatially-partitioned engine with S shards replicated
// the whole social dimension S times: every edge op was an O(S) broadcast
// (S overlay patches, S landmark repairs) and resident
// social memory scaled with S. The substrate applies each edge op exactly
// once and then *notifies* every attached Index under its own writer lock,
// so each consumer re-derives only the cell summaries the op invalidated in
// its grid and republishes — pairing the new graph/tables with recomputed
// summaries in one atomic snapshot per consumer (the Lemma-2 epoch-
// coordination invariant: membership and summaries never mix social epochs).
//
// Lock order is Social.mu -> Index.mu, always. The substrate never calls
// into an Index while that Index holds its own lock (notification *takes*
// Index.mu), and no Index path acquires Social.mu while holding Index.mu
// (edge ops are forwarded to the substrate before the Index locks itself).
package aggindex

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ssrq/internal/ch"
	"ssrq/internal/fof"
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
)

// SocialSnapshot is one immutable epoch of the shared social dimension: the
// graph and the landmark tables computed on exactly that graph. Consumers
// embed it (by reference) into their own Snapshots, so a reader holding an
// Index snapshot sees one consistent social world.
type SocialSnapshot struct {
	g     *graph.Graph
	lm    *landmark.Set
	epoch uint64 // social graph version (+1 per effective edge batch)
}

// Graph returns this epoch's social graph.
func (s *SocialSnapshot) Graph() *graph.Graph { return s.g }

// Landmarks returns this epoch's landmark tables.
func (s *SocialSnapshot) Landmarks() *landmark.Set { return s.lm }

// Epoch returns the social graph version.
func (s *SocialSnapshot) Epoch() uint64 { return s.epoch }

// Social is the shared substrate. One writer mutex serializes edge batches,
// rebuild installs and consumer attachment; readers go through the published
// atomic snapshot and never lock. It is the single owner of the landmark
// rebuild loop — a sharded engine runs ONE, not S.
type Social struct {
	lm *landmark.Set // construction-time landmark set

	// Mutable social state (ov/dyn nil when dynamic maintenance is
	// unsupported: the substrate then publishes the static construction
	// graph and rejects edge churn).
	ov  *graph.Overlay
	dyn *landmark.Dynamic
	g0  *graph.Graph
	// hier is the contraction hierarchy of the construction graph (nil
	// without Config.BuildCH). Immutable and never rebuilt: it answers exact
	// distances only while the social epoch is still 0.
	hier *ch.CH

	// labels is the immutable per-user label bitmask slice (nil when the
	// world is unlabeled); consumers build per-cell masks from it.
	labels []uint64
	// fof carries the friends-of-friends bound's monotone weight floors,
	// lowered on every edge upsert before the epoch publishes (never raised
	// on removal), so its lower bounds stay admissible against every
	// snapshot any consumer can hold.
	fof *fof.Index

	mu        sync.Mutex
	published atomic.Pointer[SocialSnapshot]
	consumers []*Index // attached under mu; notified in attach order

	epoch     uint64 // social epoch under construction
	compactAt int

	// Edge-op counters (mu-guarded; exposed via Stats).
	edgeAdds, edgeRemoves, edgeReweights, edgeNoops int64

	// commit, when set, runs under mu before an edge batch is applied — the
	// durability layer's pre-apply barrier (see Index.SetCommitBarrier).
	commit func()

	// Asynchronous landmark rebuild machinery: at most one loop at a time,
	// re-kicked by ApplyEdges while debt remains, with the rate-limited
	// forced-install fallback bounding starvation under sustained churn.
	rebuildActive  atomic.Bool
	rebuildPending atomic.Bool

	forcedEvery      time.Duration
	lmLastForced     time.Time
	lmForcedInstalls int64

	closed atomic.Bool
	bg     sync.WaitGroup

	// testBeforeInstall, when non-nil, runs in the rebuild loop after the
	// lock-free recompute and before the install takes the writer lock —
	// tests set it (before any concurrent use) to deterministically make an
	// install attempt lose the epoch race.
	testBeforeInstall func()
}

// NewSocialSubstrate builds the shared substrate over a friendship graph and
// a landmark set selected on it. When the landmark count exceeds what
// dynamic maintenance supports (64), the substrate still builds but rejects
// edge ops (SupportsEdgeChurn reports false) and publishes the static graph.
func NewSocialSubstrate(lm *landmark.Set, g *graph.Graph, cfg Config) (*Social, error) {
	if lm == nil || g == nil {
		return nil, fmt.Errorf("aggindex: nil landmark set or social graph")
	}
	if cfg.Labels != nil && len(cfg.Labels) != g.NumVertices() {
		return nil, fmt.Errorf("aggindex: %d label masks for %d users", len(cfg.Labels), g.NumVertices())
	}
	s := &Social{
		lm:          lm,
		g0:          g,
		labels:      cfg.Labels,
		fof:         fof.New(g),
		forcedEvery: cfg.ForcedInstallInterval,
	}
	if s.forcedEvery == 0 {
		s.forcedEvery = 2 * time.Second
	}
	if cfg.BuildCH {
		hier, err := ch.Build(g, ch.Options{})
		if err != nil {
			return nil, fmt.Errorf("aggindex: contraction hierarchy: %w", err)
		}
		s.hier = hier
	}
	s.ov = graph.NewOverlay(g)
	if dyn, err := landmark.NewDynamic(lm, cfg.RepairBudget); err == nil {
		s.dyn = dyn
	} else {
		// Too many landmarks for dynamic maintenance: static fallback.
		s.ov = nil
	}
	s.compactAt = cfg.CompactThreshold
	if s.compactAt <= 0 {
		s.compactAt = max(1024, g.NumVertices()/8)
	}
	s.publishLocked() // construction epoch 0; no consumers yet, no lock needed
	return s, nil
}

// Snapshot returns the latest published social epoch (lock-free).
func (s *Social) Snapshot() *SocialSnapshot { return s.published.Load() }

// SetCommitBarrier installs the pre-apply barrier for edge batches (single
// consumer; nil detaches). See Index.SetCommitBarrier.
func (s *Social) SetCommitBarrier(fn func()) {
	s.mu.Lock()
	s.commit = fn
	s.mu.Unlock()
}

// Landmarks returns the construction-time landmark set (live tables come
// from Snapshot().Landmarks()).
func (s *Social) Landmarks() *landmark.Set { return s.lm }

// SupportsEdgeChurn reports whether the substrate can ingest edge ops.
func (s *Social) SupportsEdgeChurn() bool { return s.ov != nil && s.dyn != nil }

// Hierarchy returns the contraction hierarchy built over the construction
// graph (nil without Config.BuildCH). It is exact only for snapshots whose
// social epoch is 0; callers gate on that.
func (s *Social) Hierarchy() *ch.CH { return s.hier }

// Labels returns the per-user label bitmasks (nil when unlabeled). Read-only.
func (s *Social) Labels() []uint64 { return s.labels }

// FoF returns the friends-of-friends bound index maintained by this
// substrate. Its floors are safe to read lock-free after loading any
// snapshot published by a consumer (floor updates happen-before publishes).
func (s *Social) FoF() *fof.Index { return s.fof }

// publishLocked freezes the working social state into the next published
// SocialSnapshot and returns it. Caller holds mu (or is the constructor).
func (s *Social) publishLocked() *SocialSnapshot {
	sn := &SocialSnapshot{g: s.g0, lm: s.lm, epoch: s.epoch}
	if s.ov != nil {
		sn.g = s.ov.Freeze()
	}
	if s.dyn != nil {
		sn.lm = s.dyn.Commit()
	}
	s.published.Store(sn)
	return sn
}

// notifyLocked pushes a freshly published social epoch into every attached
// consumer, still under mu — no edge batch can interleave, so each consumer
// recomputes its invalidated summaries against exactly this epoch's tables
// and republishes before the next social mutation can land. dirty lists the
// vertices whose landmark distances changed (each consumer re-derives only
// the leaf cells locating them); allLeaves forces a full summary sweep
// (after whole-table installs).
func (s *Social) notifyLocked(sn *SocialSnapshot, dirty []graph.VertexID, allLeaves bool) {
	now := time.Now()
	for _, ix := range s.consumers {
		ix.socialSync(sn, dirty, allLeaves, now)
	}
}

// attach registers a consumer built against the substrate's current epoch.
// Runs under mu so no edge batch can slip between the consumer's summary
// construction and its registration.
func (s *Social) attach(ix *Index) {
	s.consumers = append(s.consumers, ix)
}

// ApplyEdges applies a batch of edge ops to the shared social world exactly
// once — overlay patch, incremental landmark repair — then publishes the next
// social epoch and synchronously notifies every attached index so each
// republishes summaries consistent with it. Location
// ops in the batch are ignored (callers split batches). Safe for concurrent
// use; batches serialize on the substrate writer lock. On a substrate
// without edge-churn support this is a no-op.
func (s *Social) ApplyEdges(ops []Op) {
	if len(ops) == 0 || !s.SupportsEdgeChurn() {
		return
	}
	s.mu.Lock()
	if s.commit != nil {
		s.commit()
	}
	var dirty []graph.VertexID
	effective := false
	for _, op := range ops {
		if op.Kind != OpEdgeUpsert && op.Kind != OpEdgeRemove {
			continue
		}
		var changed bool
		dirty, changed = s.applyEdge(op, dirty)
		effective = effective || changed
	}
	if effective {
		s.epoch++
		if s.ov.PatchedCount() >= s.compactAt {
			s.ov.Compact()
		}
		sn := s.publishLocked()
		// The repair lists are heavily duplicated (one entry per landmark per
		// op); dedupe once here rather than once per consumer — the consumer
		// scan is the only per-consumer term left on the edge-op path, so its
		// length is what keeps the cost flat in the consumer count.
		if len(dirty) > 1 {
			slices.Sort(dirty)
			w := 1
			for i := 1; i < len(dirty); i++ {
				if dirty[i] != dirty[i-1] {
					dirty[w] = dirty[i]
					w++
				}
			}
			dirty = dirty[:w]
		}
		s.notifyLocked(sn, dirty, false)
	}
	disabled := s.dyn.View().NumDisabled() > 0
	s.mu.Unlock()
	if disabled {
		s.kickRebuild()
	}
}

// applyEdge performs one edge op on the overlay and repairs the landmark
// tables, accumulating the vertices whose landmark distances changed.
// Reports whether the op actually changed the graph. Caller holds mu.
func (s *Social) applyEdge(op Op, dirty []graph.VertexID) ([]graph.VertexID, bool) {
	u, v := op.U, op.V
	oldW, had := s.ov.EdgeWeight(u, v)
	switch op.Kind {
	case OpEdgeUpsert:
		if had && oldW == op.W {
			s.edgeNoops++
			return dirty, false
		}
		if _, err := s.ov.SetEdge(u, v, op.W); err != nil {
			// Malformed ops are rejected upstream; a failure here means a
			// caller bypassed validation — count and skip.
			s.edgeNoops++
			return dirty, false
		}
		if had {
			s.edgeReweights++
		} else {
			s.edgeAdds++
		}
		// Lower the FoF weight floors before the batch publishes: any
		// snapshot containing this edge is published after this write, so a
		// query on it can never see a floor above the edge's weight.
		s.fof.ObserveUpsert(u, v, op.W)
		return append(dirty, s.dyn.EdgeChanged(s.ov.Working(), u, v, oldW, had, op.W, true)...), true
	case OpEdgeRemove:
		if !had {
			s.edgeNoops++
			return dirty, false
		}
		if _, err := s.ov.RemoveEdge(u, v); err != nil {
			s.edgeNoops++
			return dirty, false
		}
		s.edgeRemoves++
		return append(dirty, s.dyn.EdgeChanged(s.ov.Working(), u, v, oldW, true, 0, false)...), true
	}
	return dirty, false
}

// kickRebuild starts the asynchronous landmark rebuild loop, or records the
// kick for the running loop to pick up before it exits.
func (s *Social) kickRebuild() {
	if s.dyn == nil {
		return
	}
	if !s.rebuildActive.CompareAndSwap(false, true) {
		s.rebuildPending.Store(true)
		return
	}
	if !s.spawn(s.rebuildLoop) {
		s.rebuildActive.Store(false)
	}
}

// spawn launches fn on a Close-tracked goroutine. The bg.Add runs under mu
// so it cannot race a concurrent Close's Wait; after Close it refuses.
func (s *Social) spawn(fn func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		fn()
	}()
	return true
}

// Close stops the substrate's background maintenance: no further rebuild
// goroutines start, in-flight ones abort at their next cancellation point,
// and Close returns only after every one has exited. Queries and synchronous
// mutation remain valid after Close; disabled landmarks then stay disabled
// until an explicit RebuildDisabledLandmarks. Idempotent.
func (s *Social) Close() {
	s.mu.Lock()
	s.closed.Store(true)
	s.mu.Unlock()
	s.bg.Wait()
}

// rebuildLoop restores disabled landmarks one at a time: it computes a fresh
// distance table against the published snapshot's graph *without holding the
// writer lock* (a full Dijkstra — the expensive part), then briefly takes
// the lock to install it, provided no edge batch landed in between (the
// table would describe a stale graph). Under sustained churn the optimistic
// path can lose that race indefinitely; the 8th consecutive stale attempt
// therefore falls back to a forced install — recomputing the disabled tables
// *under the writer lock*, where the epoch cannot move — rate-limited to one
// event per ForcedInstallInterval, so the disabled-landmark window is
// deterministically bounded by 8 recompute laps plus the interval. Disabled
// landmarks merely loosen bounds in the meantime — they never make them
// wrong.
func (s *Social) rebuildLoop() {
	for {
		for attempts := 0; attempts < 8; {
			if s.closed.Load() {
				s.rebuildActive.Store(false)
				return
			}
			sn := s.Snapshot()
			mask := sn.lm.DisabledMask()
			if mask == 0 {
				break
			}
			j := bits.TrailingZeros64(mask)
			table := sn.g.DistancesFrom(sn.lm.Vertices()[j])
			if s.testBeforeInstall != nil {
				s.testBeforeInstall()
			}
			s.mu.Lock()
			if s.epoch == sn.epoch {
				s.dyn.InstallTable(j, table)
				nsn := s.publishLocked()
				s.notifyLocked(nsn, nil, true)
				attempts = 0
			} else {
				attempts++
				if attempts >= 8 {
					s.forceInstallLandmarksLocked()
				}
			}
			s.mu.Unlock()
		}
		s.rebuildActive.Store(false)
		// Close the lost-wakeup window: a kick that arrived while we were
		// flagged active would otherwise be dropped, stranding a freshly
		// disabled landmark if churn stops here.
		if !s.rebuildPending.Swap(false) {
			return
		}
		if s.Snapshot().lm.DisabledMask() == 0 ||
			!s.rebuildActive.CompareAndSwap(false, true) {
			return
		}
	}
}

// forceInstallLandmarksLocked recomputes every disabled landmark table on
// the working graph and installs it, all under the writer lock the caller
// already holds — writers are stalled for the duration (one Dijkstra per
// disabled landmark plus each consumer's summary sweep), which is exactly
// the trade: a bounded write stall instead of an unbounded pruning-
// degradation window. Rate-limited to one event per forcedEvery.
func (s *Social) forceInstallLandmarksLocked() {
	if s.forcedEvery < 0 || time.Since(s.lmLastForced) < s.forcedEvery {
		return
	}
	mask := s.dyn.View().DisabledMask()
	if mask == 0 {
		return
	}
	g := s.ov.Working()
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		s.dyn.InstallTable(j, g.DistancesFrom(s.dyn.View().Vertices()[j]))
		s.lmForcedInstalls++
		mask &^= 1 << uint(j)
	}
	sn := s.publishLocked()
	s.notifyLocked(sn, nil, true)
	s.lmLastForced = time.Now()
}

// RebuildDisabledLandmarks synchronously recomputes every disabled landmark
// against the current working graph and publishes the result to every
// consumer as one social epoch. It blocks concurrent writers for the
// duration but never blocks readers. Returns how many landmarks it restored.
func (s *Social) RebuildDisabledLandmarks() int {
	if s.dyn == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rebuilt := 0
	g := s.ov.Working()
	for {
		mask := s.dyn.View().DisabledMask()
		if mask == 0 {
			break
		}
		j := bits.TrailingZeros64(mask)
		s.dyn.InstallTable(j, g.DistancesFrom(s.dyn.View().Vertices()[j]))
		rebuilt++
	}
	if rebuilt > 0 {
		sn := s.publishLocked()
		s.notifyLocked(sn, nil, true)
	}
	return rebuilt
}

// Stats reports the substrate's counters (see SocialStats). With a shared
// substrate these are per-world, not per-shard: an edge op counts once no
// matter how many indexes consume the snapshot.
func (s *Social) Stats() SocialStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SocialStats{SocialEpoch: s.epoch}
	if s.ov != nil {
		st.NumEdges = s.ov.NumEdges()
		st.PatchedVertices = s.ov.PatchedCount()
		_, _, _, st.Compactions = s.ov.Stats()
		st.EdgeAdds, st.EdgeRemoves, st.EdgeReweights, st.EdgeNoops = s.edgeAdds, s.edgeRemoves, s.edgeReweights, s.edgeNoops
	} else if s.g0 != nil {
		st.NumEdges = s.g0.NumEdges()
	}
	if s.dyn != nil {
		st.DisabledLandmarks = s.dyn.View().NumDisabled()
		st.LandmarkRepairs, st.RepairedVertices, st.LandmarkDisables, st.LandmarkRebuilds = s.dyn.Stats()
		st.LandmarkForcedInstalls = s.lmForcedInstalls
	}
	return st
}
