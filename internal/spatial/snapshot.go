package spatial

// Every array of a Snapshot is paged: user coordinates in pages of 16 points,
// users' located bits in pages of 512 (64 B), per-cell state (leaf buckets,
// occupancy counts) in pages of 8 cells. The writer duplicates a page on its
// first write of an epoch and each spine of page pointers once per epoch, so
// an epoch copies the pages its moved users and touched cells live in plus
// the spines — a few hundred bytes per touched page, nothing proportional to
// the population or the grid. The sizes are measured (TestEpochByteBudget):
// smaller pages copy less per touch but make the spines every epoch copies
// longer.
//
// A user's leaf cell is not stored: it is the leaf CellIndex files the
// user's point under, so LeafOf is a bit test plus that call, and the
// writer reads a mover's old leaf before it writes the new point.
//
// A page no write has reached is shared, so state costs memory only where
// writes have been:
//   - a point page is, until one of its users moves, a 16-point chunk of the
//     slice the grid was built from (NewGrid), so every grid built over one
//     dataset shares the dataset's one copy of the points;
//   - a located-bit page is the shared empty page below until one of its
//     users is located, and a bucket or count page until a user is located
//     in one of its cells, so a grid over clustered users, or a shard
//     holding a part of them, leaves most of those pages unwritten.
const (
	ptPageShift   = 4
	ptPageSize    = 1 << ptPageShift
	ptPageMask    = ptPageSize - 1
	locPageShift  = 9
	locPageSize   = 1 << locPageShift
	locPageMask   = locPageSize - 1
	cellPageShift = 3
	cellPageSize  = 1 << cellPageShift
	cellPageMask  = cellPageSize - 1
)

// ptPage holds a page of users' coordinates.
type ptPage [ptPageSize]Point

// locPage holds a page of users' located bits, user id at bit id&63 of word
// (id&locPageMask)>>6.
type locPage [locPageSize / 64]uint64

type cellPage[T any] [cellPageSize]T

// The empty pages every located-bit and cell spine slot starts at: unlocated
// users, empty leaf buckets, zero counts. They are never written;
// writablePage duplicates them. Point pages have none: every slot starts as
// a page of the construction slice.
var (
	emptyLocated = new(locPage)
	emptyBuckets = new(cellPage[[]int32])
	emptyCounts  = new(cellPage[int32])
)

// newPages returns a spine of n/per slots (rounded up), each the empty page.
func newPages[P any](n, per int, empty *P) []*P {
	spine := make([]*P, (n+per-1)/per)
	for i := range spine {
		spine[i] = empty
	}
	return spine
}

// writablePage returns page pg of the working epoch's spine for writing,
// duplicating it first while it is the empty page or still the page of base,
// the published epoch's spine the working one was cloned from (nil before
// anything is published). A page the working spine shares with neither was
// duplicated earlier and is private to this epoch. A point page aliasing the
// construction slice is the published epoch's page from the first Publish
// on, so its first write copies it like any other shared page.
func writablePage[P any](work, base []*P, empty *P, pg int32) *P {
	if p := work[pg]; p == empty || base != nil && p == base[pg] {
		cp := *p
		work[pg] = &cp
	}
	return work[pg]
}

// sameArray reports whether two buckets share a backing array. Buckets always
// start at their array's first element, so comparing those suffices; one with
// no capacity shares nothing, since appending to it allocates.
func sameArray(a, b []int32) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// Snapshot is one immutable epoch of grid state: the complete query-visible
// view — per-user coordinates and located bits, leaf membership, and the
// per-level occupancy counts. Snapshots are published by Grid.Publish through
// an atomic pointer; once published a snapshot never changes, so any number
// of readers may traverse it without locks while the writer builds the next
// epoch copy-on-write. Superseded snapshots are reclaimed by the garbage
// collector once the last reader drops its pointer — Go's GC plays the role
// of epoch-based reclamation.
type Snapshot struct {
	layout *Layout
	n      int

	pts    []*ptPage
	loc    []*locPage           // user ID -> located bit
	leaves []*cellPage[[]int32] // leaf cell index -> member user IDs
	// counts[level] holds the located users under each cell of the levels
	// above the leaf; a leaf's count is the length of its bucket.
	counts     [][]*cellPage[int32]
	numLocated int
}

// Layout returns the grid geometry.
func (s *Snapshot) Layout() *Layout { return s.layout }

// NumUsers returns the number of users the grid was built over.
func (s *Snapshot) NumUsers() int { return s.n }

// NumLocated returns how many users have an indexed location in this epoch.
func (s *Snapshot) NumLocated() int { return s.numLocated }

// Point returns the location of a user in this epoch (meaningless when not
// located).
func (s *Snapshot) Point(id int32) Point { return s.pts[id>>ptPageShift][id&ptPageMask] }

// Located reports whether the user has a known location in this epoch.
func (s *Snapshot) Located(id int32) bool {
	return s.loc[id>>locPageShift][(id&locPageMask)>>6]>>(id&63)&1 != 0
}

// LeafOf returns the leaf cell holding the user in this epoch, or -1 when
// the user has no location.
func (s *Snapshot) LeafOf(id int32) int32 {
	if !s.Located(id) {
		return -1
	}
	return s.leafAt(s.Point(id))
}

// leafAt returns the leaf cell CellIndex files point p under.
func (s *Snapshot) leafAt(p Point) int32 { return s.layout.CellIndex(s.layout.LeafLevel(), p) }

// CellUsers returns the members of a leaf cell (do not modify).
func (s *Snapshot) CellUsers(leafIdx int32) []int32 {
	return s.leaves[leafIdx>>cellPageShift][leafIdx&cellPageMask]
}

// CountAt returns the number of located users under a cell.
func (s *Snapshot) CountAt(level int, idx int32) int32 {
	if level == s.layout.LeafLevel() {
		return int32(len(s.CellUsers(idx)))
	}
	return s.counts[level][idx>>cellPageShift][idx&cellPageMask]
}
