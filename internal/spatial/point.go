// Package spatial implements the Euclidean substrate of the SSRQ
// reproduction: points, rectangles, and a dynamic multi-level regular grid
// with a branch-and-bound incremental nearest-neighbor iterator — the
// main-memory combination the paper adopts for SPA/TSA ([35], §4.1) and the
// spatial skeleton of the AIS aggregate index (§5.1).
package spatial

import "math"

// Point is a location in 2-D Euclidean space.
type Point struct {
	X, Y float64
}

// IsFinite reports whether both coordinates are ordinary finite numbers.
// NaN or ±Inf coordinates would silently corrupt grid membership (CellIndex
// comparisons all fail, clamping the user into cell 0), so update paths
// reject non-finite points before they reach the index.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Rect is an axis-aligned rectangle, closed on all sides.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether p lies in r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// MinDist returns the minimum Euclidean distance between p and any point of
// r — the paper's dˇ(u_q, C) spatial lower bound: 0 when p is inside r,
// otherwise the distance to the nearest boundary point.
func (r Rect) MinDist(p Point) float64 {
	dx := math.Max(math.Max(r.MinX-p.X, 0), p.X-r.MaxX)
	dy := math.Max(math.Max(r.MinY-p.Y, 0), p.Y-r.MaxY)
	return math.Sqrt(dx*dx + dy*dy)
}

// Diagonal returns the length of r's diagonal — the spatial-proximity
// normalization constant (max pairwise Euclidean distance bound).
func (r Rect) Diagonal() float64 {
	dx, dy := r.MaxX-r.MinX, r.MaxY-r.MinY
	return math.Sqrt(dx*dx + dy*dy)
}

// Width and Height of the rectangle.
func (r Rect) Width() float64  { return r.MaxX - r.MinX }
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// BoundingRect returns the tightest rectangle covering all points; ok is
// false when pts is empty or no point is marked located.
func BoundingRect(pts []Point, located []bool) (Rect, bool) {
	first := true
	var r Rect
	for i, p := range pts {
		if located != nil && !located[i] {
			continue
		}
		if first {
			r = Rect{p.X, p.Y, p.X, p.Y}
			first = false
			continue
		}
		r.MinX = math.Min(r.MinX, p.X)
		r.MinY = math.Min(r.MinY, p.Y)
		r.MaxX = math.Max(r.MaxX, p.X)
		r.MaxY = math.Max(r.MaxY, p.Y)
	}
	return r, !first
}
