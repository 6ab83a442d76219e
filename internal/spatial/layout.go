package spatial

import (
	"fmt"
	"math"
	"slices"
)

// Layout is the pure geometry of a multi-level regular grid: L stored
// levels over a bounding rectangle, where level ℓ (0 = coarsest stored,
// L−1 = leaf) partitions each axis into s^(ℓ+1) equal cells. Each cell is
// therefore parent to s×s cells of the next level, matching the paper's
// index (§5.1, Fig. 3). Following the paper's setup we store the lowest
// Levels levels of the conceptual hierarchy and seed searches with every
// top-level cell (the grid "does not have to be a tree").
//
// Layout is shared by the plain spatial grid (SPA/TSA) and the AIS
// aggregate index so both use identical geometry.
type Layout struct {
	Bounds Rect
	S      int // partitioning granularity (cells per axis per level step)
	Levels int // number of stored levels
	dims   []int
}

// NewLayout validates and precomputes a layout.
func NewLayout(bounds Rect, s, levels int) (*Layout, error) {
	if s < 2 {
		return nil, fmt.Errorf("spatial: granularity s = %d must be ≥ 2", s)
	}
	if levels < 1 || levels > 4 {
		return nil, fmt.Errorf("spatial: levels = %d out of [1,4]", levels)
	}
	if !(bounds.MaxX > bounds.MinX) || !(bounds.MaxY > bounds.MinY) {
		return nil, fmt.Errorf("spatial: degenerate bounds %+v", bounds)
	}
	l := &Layout{Bounds: bounds, S: s, Levels: levels}
	dim := s
	for i := 0; i < levels; i++ {
		l.dims = append(l.dims, dim)
		dim *= s
	}
	return l, nil
}

// Dim returns the number of cells per axis at the given stored level.
func (l *Layout) Dim(level int) int { return l.dims[level] }

// NumCells returns the total number of cells at the given level.
func (l *Layout) NumCells(level int) int { return l.dims[level] * l.dims[level] }

// LeafLevel returns the index of the finest stored level.
func (l *Layout) LeafLevel() int { return l.Levels - 1 }

// CellIndex returns the flattened index of the cell containing p at the
// given level. Points outside the bounds clamp to the border cells so a
// moving user never falls off the grid.
func (l *Layout) CellIndex(level int, p Point) int32 {
	dim := l.dims[level]
	fx := (p.X - l.Bounds.MinX) / l.Bounds.Width() * float64(dim)
	fy := (p.Y - l.Bounds.MinY) / l.Bounds.Height() * float64(dim)
	ix, iy := int(fx), int(fy)
	if ix < 0 {
		ix = 0
	} else if ix >= dim {
		ix = dim - 1
	}
	if iy < 0 {
		iy = 0
	} else if iy >= dim {
		iy = dim - 1
	}
	return int32(iy*dim + ix)
}

// CellRect returns the spatial extent of cell idx at the given level.
func (l *Layout) CellRect(level int, idx int32) Rect {
	dim := l.dims[level]
	ix, iy := int(idx)%dim, int(idx)/dim
	w := l.Bounds.Width() / float64(dim)
	h := l.Bounds.Height() / float64(dim)
	return Rect{
		MinX: l.Bounds.MinX + float64(ix)*w,
		MinY: l.Bounds.MinY + float64(iy)*h,
		MaxX: l.Bounds.MinX + float64(ix+1)*w,
		MaxY: l.Bounds.MinY + float64(iy+1)*h,
	}
}

// CellMinDist returns a lower bound on the distance from p to every point
// CellIndex files under cell idx — the paper's dˇ(u_q, C). Points outside
// the bounds clamp into the border cells, so a border cell's region runs
// outward without limit: measuring against its CellRect alone would
// overestimate the distance to a user who moved off the construction-time
// bounds, and a search pruning on that bound would lose them.
func (l *Layout) CellMinDist(level int, idx int32, p Point) float64 {
	r := l.CellRect(level, idx)
	dim := l.dims[level]
	ix, iy := int(idx)%dim, int(idx)/dim
	if ix == 0 {
		r.MinX = math.Inf(-1)
	}
	if ix == dim-1 {
		r.MaxX = math.Inf(1)
	}
	if iy == 0 {
		r.MinY = math.Inf(-1)
	}
	if iy == dim-1 {
		r.MaxY = math.Inf(1)
	}
	return r.MinDist(p)
}

// ParentIndex maps a cell at level ≥ 1 to its parent at level−1.
func (l *Layout) ParentIndex(level int, idx int32) int32 {
	dim := l.dims[level]
	ix, iy := int(idx)%dim, int(idx)/dim
	pdim := l.dims[level-1]
	return int32((iy/l.S)*pdim + ix/l.S)
}

// ChildIndices appends the s×s child cell indices (at level+1) of cell idx
// to dst and returns it, growing dst at most once.
func (l *Layout) ChildIndices(level int, idx int32, dst []int32) []int32 {
	dst = slices.Grow(dst, l.S*l.S)
	dim := l.dims[level]
	ix, iy := int(idx)%dim, int(idx)/dim
	cdim := l.dims[level+1]
	for dy := 0; dy < l.S; dy++ {
		row := (iy*l.S + dy) * cdim
		for dx := 0; dx < l.S; dx++ {
			dst = append(dst, int32(row+ix*l.S+dx))
		}
	}
	return dst
}
