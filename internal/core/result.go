package core

import (
	"math"
	"sort"

	"ssrq/internal/graph"
)

// Entry is one reported user with its ranking value and the two normalized
// proximities it decomposes into.
type Entry struct {
	ID int32
	F  float64 // α·P + (1−α)·D
	P  float64 // normalized social (shortest-path) proximity
	D  float64 // normalized spatial (Euclidean) proximity
}

// Stats instruments one query execution. The paper's pop ratio (Fig. 8c/d,
// 10c/d) is |Vpop| / |V| where |Vpop| counts vertices popped from the
// methods' search heaps; Stats tracks each heap separately.
type Stats struct {
	SocialPops     int // vertices settled by graph searches (Dijkstra/A*, fwd+rev)
	ReversePops    int // subset of SocialPops settled by reverse A* searches
	SpatialPops    int // users reported by the incremental spatial NN stream
	IndexUserPops  int // users popped from the AIS branch-and-bound heap
	IndexCellPops  int // cells popped from the AIS heap
	Reinserts      int // delayed-evaluation push-backs (§5.3)
	GraphDistCalls int // exact social-distance evaluations
	BoundedStops   int // evaluations GraphDist ended at the f_k threshold, without an exact distance
	CHQueries      int // contraction-hierarchy point-to-point queries
	CacheHits      int // §5.4 pre-computed list hits
	// GraphDistRestarts counts GraphDist rounds after an evaluation's first:
	// reverse searches that ran out of budget and were started over once the
	// forward search had caught up.
	GraphDistRestarts int
	// LabelCellPrunes counts grid cells a filtered query discarded outright
	// because the cell's OR'd label mask missed the filter; LabelSkips
	// counts individual users rejected at admission by the filter.
	LabelCellPrunes int
	LabelSkips      int
	// FoFTightened counts bound evaluations where the friends-of-friends
	// bound was strictly tighter than the landmark bound.
	FoFTightened int
	FellBack     bool
}

// Pops returns the |Vpop| aggregate used for the pop-ratio metric.
func (s Stats) Pops() int { return s.SocialPops + s.SpatialPops + s.IndexUserPops }

// PopRatio returns Pops()/n.
func (s Stats) PopRatio(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(s.Pops()) / float64(n)
}

// Add accumulates another execution's counters (used by batch aggregation
// and the sharded engine's fan-out, which reports the work of all shards a
// query touched as one Stats).
func (s *Stats) Add(o Stats) {
	s.SocialPops += o.SocialPops
	s.ReversePops += o.ReversePops
	s.SpatialPops += o.SpatialPops
	s.IndexUserPops += o.IndexUserPops
	s.IndexCellPops += o.IndexCellPops
	s.Reinserts += o.Reinserts
	s.GraphDistCalls += o.GraphDistCalls
	s.BoundedStops += o.BoundedStops
	s.GraphDistRestarts += o.GraphDistRestarts
	s.CHQueries += o.CHQueries
	s.CacheHits += o.CacheHits
	s.LabelCellPrunes += o.LabelCellPrunes
	s.LabelSkips += o.LabelSkips
	s.FoFTightened += o.FoFTightened
	// FellBack is a property of the whole execution, not a counter: if any
	// contributing engine's AISCache list was exhausted inconclusively, the
	// aggregate fell back.
	s.FellBack = s.FellBack || o.FellBack
}

// Result is a completed SSRQ answer, sorted ascending by (F, ID).
type Result struct {
	Query   graph.VertexID
	Params  Params
	Entries []Entry
	Stats   Stats
}

// IDs returns the reported user IDs in rank order.
func (r *Result) IDs() []int32 {
	ids := make([]int32, len(r.Entries))
	for i, e := range r.Entries {
		ids[i] = e.ID
	}
	return ids
}

// IDSet returns the reported users as a set.
func (r *Result) IDSet() map[int32]bool {
	set := make(map[int32]bool, len(r.Entries))
	for _, e := range r.Entries {
		set[e.ID] = true
	}
	return set
}

// topK is the interim result R of the paper's algorithms: the best-k entries
// seen so far with f_k = the k-th (worst) ranking value. Entries with
// non-finite f never qualify (users at infinite proximity are not
// recommendable). Ties on f break by ascending ID so every algorithm keeps
// an identical interim state. With k ≤ 50 (Table 3) a sorted slice beats a
// heap.
//
// The optional shared bound is the sharded engine's running global
// threshold: a live external f_k ceiling that Fk reads on every call and
// that Consider improves whenever this topK's own kth value tightens, so
// concurrent shard searches prune against each other's progress mid-flight.
// The bound is applied with *strict* semantics — Fk reports the next
// representable float above it — because an entry tying the global kth score
// exactly could still win its ID tiebreak; only entries strictly worse than
// the bound are safe to abandon.
//
// topK structs are pooled (see queryPools): reset re-arms one in place and
// reuses the entries storage, so the serving path allocates nothing here.
type topK struct {
	k      int
	shared *SharedBound // live external f_k ceiling (nil when unbounded)
	// quiet suspends publishing to the shared bound (it is still read): for
	// an interim result that may yet be discarded. See runAISCache.
	quiet   bool
	entries []Entry // ascending (F, ID)
}

func newTopK(k int) *topK {
	return new(topK).reset(k, nil)
}

// reset re-arms the interim result for a fresh query with an optional live
// external threshold, reusing the entry storage.
func (t *topK) reset(k int, shared *SharedBound) *topK {
	t.k = k
	t.shared = shared
	t.quiet = false
	if cap(t.entries) < k {
		t.entries = make([]Entry, 0, k)
	} else {
		t.entries = t.entries[:0]
	}
	return t
}

func entryLess(a, b Entry) bool {
	if a.F != b.F {
		return a.F < b.F
	}
	return a.ID < b.ID
}

// strictify converts an external kth-value bound into the strict-semantics
// ceiling Fk reports: the next representable float above it, so entries
// tying the bound are still admitted and reported.
func strictify(f float64) float64 {
	if math.IsInf(f, 1) || math.IsNaN(f) {
		return math.Inf(1)
	}
	return math.Nextafter(f, math.Inf(1))
}

// Fk returns the current k-th ranking value: +Inf while fewer than k entries
// qualify (so no bound can terminate a search prematurely), capped by the
// live external threshold when one was provided.
func (t *topK) Fk() float64 {
	b := math.Inf(1)
	if t.shared != nil {
		b = strictify(t.shared.Load())
	}
	if len(t.entries) < t.k {
		return b
	}
	if fk := t.entries[len(t.entries)-1].F; fk < b {
		return fk
	}
	return b
}

// Consider offers an entry; it is inserted when it beats the current
// interim result. Reports whether the entry was admitted. Whenever the
// interim result is full its kth value is published to the shared threshold:
// the k entries held are distinct, fully-evaluated users, so their worst F
// upper-bounds the merged kth value of any fan-out this search is part of.
func (t *topK) Consider(e Entry) bool {
	if !finite(e.F) {
		return false
	}
	if len(t.entries) == t.k {
		worst := t.entries[len(t.entries)-1]
		if !entryLess(e, worst) {
			return false
		}
		t.entries = t.entries[:len(t.entries)-1]
	}
	pos := sort.Search(len(t.entries), func(i int) bool { return entryLess(e, t.entries[i]) })
	t.entries = append(t.entries, Entry{})
	copy(t.entries[pos+1:], t.entries[pos:])
	t.entries[pos] = e
	if !t.quiet {
		t.publish()
	}
	return true
}

// publish tightens the shared bound to this result's kth value, if it has one.
func (t *topK) publish() {
	if t.shared != nil && len(t.entries) == t.k {
		t.shared.Tighten(t.entries[t.k-1].F)
	}
}

// Sorted returns the final entries (ascending F, ID). The slice is owned by
// the topK and must not be mutated further.
func (t *topK) Sorted() []Entry { return t.entries }

// Len returns the number of admitted entries.
func (t *topK) Len() int { return len(t.entries) }
