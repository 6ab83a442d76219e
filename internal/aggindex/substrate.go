// The shared social substrate: one mutable social world — edge overlay and
// dynamic landmark tables — publishing one immutable epoch-tagged
// SocialSnapshot that any number of aggregate indexes consume.
//
// Before the substrate existed every Index owned its own overlay + landmark
// copies, so a spatially-partitioned engine with S shards replicated
// the whole social dimension S times: every edge op was an O(S) broadcast
// (S overlay patches, S landmark repairs) and resident
// social memory scaled with S. The substrate applies each edge op exactly
// once and returns the new epoch with the vertices whose landmark distances
// it changed; Apply (aggindex.go) then hands that change to every index, which
// re-derives only the cell summaries it invalidated in its grid and publishes
// the new graph and tables with them in one snapshot (the Lemma-2 epoch-
// coordination invariant: membership and summaries never mix social epochs).
// The substrate knows nothing of its consumers.
package aggindex

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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

// Social is the shared substrate. Its mutex serializes edge batches against
// each other and against Stats; readers go through the published atomic
// snapshot and never lock. All landmark maintenance happens inside
// ApplyEdges, on the caller's goroutine: the substrate starts none.
type Social struct {
	lm *landmark.Set // construction-time landmark set

	// Mutable social state.
	ov  *graph.Overlay
	dyn *landmark.Dynamic
	// labels is the immutable per-user label bitmask slice (nil when the
	// world is unlabeled); consumers build per-cell masks from it.
	labels []uint64

	mu        sync.Mutex
	published atomic.Pointer[SocialSnapshot]

	epoch     uint64 // social epoch under construction
	compactAt int

	// Edge-op counters (mu-guarded; exposed via Stats).
	edgeAdds, edgeRemoves, edgeReweights, edgeNoops int64
}

// NewSocialSubstrate builds the shared substrate over a friendship graph and
// a landmark set selected on it.
func NewSocialSubstrate(lm *landmark.Set, g *graph.Graph, cfg Config) (*Social, error) {
	if lm == nil || g == nil {
		return nil, fmt.Errorf("aggindex: nil landmark set or social graph")
	}
	if cfg.Labels != nil && len(cfg.Labels) != g.NumVertices() {
		return nil, fmt.Errorf("aggindex: %d label masks for %d users", len(cfg.Labels), g.NumVertices())
	}
	s := &Social{
		lm:     lm,
		ov:     graph.NewOverlay(g),
		dyn:    landmark.NewDynamic(lm),
		labels: cfg.Labels,
	}
	s.compactAt = cfg.CompactThreshold
	if s.compactAt <= 0 {
		s.compactAt = max(1024, g.NumVertices()/8)
	}
	s.published.Store(&SocialSnapshot{g: s.ov.Freeze(), lm: lm})
	return s, nil
}

// Snapshot returns the latest published social epoch (lock-free).
func (s *Social) Snapshot() *SocialSnapshot { return s.published.Load() }

// Landmarks returns the construction-time landmark set (an index snapshot's
// Landmarks are the live tables).
func (s *Social) Landmarks() *landmark.Set { return s.lm }

// ApplyEdges applies a batch of edge ops to the shared social world exactly
// once — overlay patch, incremental landmark repair, then the recompute of
// any landmark the batch drove stale — publishes the next social epoch and
// returns it with the vertices whose landmark distances changed, sorted and
// without duplicates. A batch that changes nothing returns (nil, nil) and
// publishes nothing. Location ops in the batch are skipped, so a mixed batch
// may be passed whole.
func (s *Social) ApplyEdges(ops []Op) (*SocialSnapshot, []graph.VertexID) {
	if len(ops) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var dirty []graph.VertexID
	effective := false
	for _, op := range ops {
		if op.Kind == OpLocation {
			continue
		}
		var changed bool
		dirty, changed = s.applyEdge(op, dirty)
		effective = effective || changed
	}
	if !effective {
		return nil, nil
	}
	s.epoch++
	if s.ov.PatchedCount() >= s.compactAt {
		s.ov.Compact()
	}
	g := s.ov.Freeze()
	var lm *landmark.Set
	lm, dirty = s.dyn.Commit(g, dirty)
	sn := &SocialSnapshot{g: g, lm: lm, epoch: s.epoch}
	s.published.Store(sn)
	// The repair lists are heavily duplicated (one entry per landmark per
	// op); dedupe once here rather than once per index.
	slices.Sort(dirty)
	return sn, slices.Compact(dirty)
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

// Stats reports the substrate's counters (see SocialStats). With a shared
// substrate these are per-world, not per-shard: an edge op counts once no
// matter how many indexes consume the snapshot.
func (s *Social) Stats() SocialStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SocialStats{
		SocialEpoch:     s.epoch,
		NumEdges:        s.ov.NumEdges(),
		PatchedVertices: s.ov.PatchedCount(),
		EdgeAdds:        s.edgeAdds,
		EdgeRemoves:     s.edgeRemoves,
		EdgeReweights:   s.edgeReweights,
		EdgeNoops:       s.edgeNoops,
	}
	_, _, _, st.Compactions = s.ov.Stats()
	st.LandmarkRepairs, st.RepairedVertices, st.LandmarkRebuilds = s.dyn.Stats()
	return st
}
