package core

import (
	"math"
	"slices"
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
	SocialPops    int // vertices settled by graph searches (Dijkstra/A*, fwd+rev)
	ReversePops   int // subset of SocialPops settled by reverse A* searches
	SpatialPops   int // users reported by the incremental spatial NN stream
	IndexUserPops int // users popped from either of AIS's queues
	IndexCellPops int // cells popped from AIS's heap
	// Reinserts counts AIS's β deferrals (§5.3): users sent to the β-queue
	// and cells pushed, or pushed back, at a key β raised.
	Reinserts      int
	GraphDistCalls int // exact social-distance evaluations
	BoundedStops   int // evaluations GraphDist ended at the f_k threshold, without an exact distance
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
	// FoFTightened is always 0: no search uses the friends-of-friends bound
	// any more (DESIGN.md §4.13). It remains because bench/layers.go reads
	// it.
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

// Result is a completed SSRQ answer, sorted ascending by (F, ID).
type Result struct {
	Query   graph.VertexID
	Params  Params
	Entries []Entry
	Stats   Stats
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
// A user holds at most one entry: AIS offers a user twice when a queue
// evaluates it and the forward search later settles it (DESIGN.md §4.12),
// so a second entry for an ID already held replaces it only when it is the
// better (F, ID).
//
// topK structs are pooled (see queryPools): reset re-arms one in place and
// reuses the entries storage, so the serving path allocates nothing here.
type topK struct {
	k       int
	entries []Entry // ascending (F, ID)
}

func newTopK(k int) *topK {
	return new(topK).reset(k)
}

// reset re-arms the interim result for a fresh query, reusing the entry
// storage.
func (t *topK) reset(k int) *topK {
	t.k = k
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

// Fk returns the current k-th ranking value: +Inf while fewer than k entries
// qualify, so no bound can terminate a search prematurely.
func (t *topK) Fk() float64 {
	if len(t.entries) < t.k {
		return math.Inf(1)
	}
	return t.entries[len(t.entries)-1].F
}

// Consider offers an entry; it is inserted when it beats the current
// interim result (and any entry already held for the same user). Reports
// whether the entry was admitted.
func (t *topK) Consider(e Entry) bool {
	if !finite(e.F) {
		return false
	}
	n := len(t.entries)
	if n == t.k && !entryLess(e, t.entries[n-1]) {
		return false
	}
	// Only an entry that would be admitted pays the duplicate scan, and
	// admission already costs an O(k) shift.
	if i := slices.IndexFunc(t.entries, func(x Entry) bool { return x.ID == e.ID }); i >= 0 {
		if !entryLess(e, t.entries[i]) {
			return false
		}
		t.entries = slices.Delete(t.entries, i, i+1)
	} else if n == t.k {
		t.entries = t.entries[:n-1]
	}
	pos := sort.Search(len(t.entries), func(i int) bool { return entryLess(e, t.entries[i]) })
	t.entries = append(t.entries, Entry{})
	copy(t.entries[pos+1:], t.entries[pos:])
	t.entries[pos] = e
	return true
}

// Sorted returns the final entries (ascending F, ID). The slice is owned by
// the topK and must not be mutated further.
func (t *topK) Sorted() []Entry { return t.entries }

// Len returns the number of admitted entries.
func (t *topK) Len() int { return len(t.entries) }
