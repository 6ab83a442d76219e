// Package dataset glues the social and spatial substrates into one queryable
// geo-social dataset: the weighted social graph, per-user locations (with a
// located bitmap — the paper keeps users with unknown whereabouts
// "infinitely far away"), and the per-domain normalization constants that
// the ranking function divides by (§3.1).
//
// Normalization happens once, at construction: edge weights are divided by
// an estimate of the maximum pairwise graph distance (double-sweep
// pseudo-diameter) and coordinates by the bounding-box diagonal, so every
// downstream algorithm works with proximities in roughly [0, 1] and the
// ranking function is simply f = α·p + (1−α)·d.
package dataset

import (
	"fmt"
	"math"

	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// Norms records the per-domain normalization constants so raw distances can
// be recovered (raw = normalized × constant).
type Norms struct {
	// Social is the double-sweep pseudo-diameter of the raw graph, a lower
	// bound on the true maximum pairwise distance.
	Social float64
	// Spatial is the diagonal of the bounding rectangle of raw locations.
	Spatial float64
}

// Dataset is an immutable-topology geo-social dataset. Locations may move
// (via the engine's update path); the graph does not change after
// construction.
type Dataset struct {
	Name string
	G    *graph.Graph // edge weights normalized by Norms.Social
	// Pts holds the coordinates at construction, normalized by
	// Norms.Spatial. Engines build their grids over this slice without
	// copying it (spatial.NewGrid), and a move copies the grid's page rather
	// than write here. Like Labels, it must not be mutated afterwards.
	Pts     []spatial.Point
	Located []bool
	// Labels holds an optional per-user attribute/topic bitmask (up to 64
	// labels, bit i = label i), fixed at construction like the graph
	// topology. Nil (or all-zero) means the dataset is unlabeled. A user
	// with a zero mask matches no nonzero query filter.
	Labels []uint64
	Norms  Norms
	bounds spatial.Rect // of normalized located points
}

// New builds a dataset from a raw graph and raw locations, normalizing both
// domains. pts[i] is meaningful only when located[i] is true.
func New(name string, g *graph.Graph, pts []spatial.Point, located []bool) (*Dataset, error) {
	n := g.NumVertices()
	if len(pts) != n || len(located) != n {
		return nil, fmt.Errorf("dataset: graph has %d vertices but %d points / %d flags", n, len(pts), len(located))
	}
	if n == 0 {
		return nil, fmt.Errorf("dataset: empty")
	}

	// Social normalization: double-sweep from the highest-degree vertex of
	// the raw graph (a cheap, stable pseudo-diameter).
	social := 1.0
	if g.NumEdges() > 0 {
		start, bestDeg := graph.VertexID(0), -1
		for v := 0; v < n; v++ {
			if d := g.Degree(graph.VertexID(v)); d > bestDeg {
				start, bestDeg = graph.VertexID(v), d
			}
		}
		if est := g.EstimateDiameter(start); est > 0 {
			social = est
		}
	}

	rawBounds, anyLocated := spatial.BoundingRect(pts, located)
	spatialNorm := 1.0
	if anyLocated {
		if diag := rawBounds.Diagonal(); diag > 0 {
			spatialNorm = diag
		}
	}

	normPts := make([]spatial.Point, n)
	for i, p := range pts {
		if located[i] {
			normPts[i] = spatial.Point{X: p.X / spatialNorm, Y: p.Y / spatialNorm}
		}
	}
	normLocated := append([]bool(nil), located...)

	ds := &Dataset{
		Name:    name,
		G:       g.ScaleWeights(1 / social),
		Pts:     normPts,
		Located: normLocated,
		Norms:   Norms{Social: social, Spatial: spatialNorm},
	}
	if anyLocated {
		ds.bounds, _ = spatial.BoundingRect(normPts, normLocated)
	} else {
		ds.bounds = spatial.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	return ds, nil
}

// SetLabels attaches a per-user label bitmask to the dataset. Like the
// graph topology, labels are fixed for the dataset's lifetime; engines read
// the slice without copying, so callers must not mutate it afterwards.
func (d *Dataset) SetLabels(labels []uint64) error {
	if labels != nil && len(labels) != d.NumUsers() {
		return fmt.Errorf("dataset: %d label masks for %d users", len(labels), d.NumUsers())
	}
	d.Labels = labels
	return nil
}

// LabelsOf returns user u's label bitmask (0 when the dataset is unlabeled).
func (d *Dataset) LabelsOf(u int32) uint64 {
	if d.Labels == nil {
		return 0
	}
	return d.Labels[u]
}

// NumUsers returns the number of users (== graph vertices).
func (d *Dataset) NumUsers() int { return d.G.NumVertices() }

// NumLocated returns how many users have a known location.
func (d *Dataset) NumLocated() int {
	n := 0
	for _, l := range d.Located {
		if l {
			n++
		}
	}
	return n
}

// PaddedBounds grows the bounding rectangle of the normalized located points
// by a small margin on every side, so border points stay strictly inside a
// grid built over it and even a single-point dataset gets a non-degenerate
// rectangle.
func (d *Dataset) PaddedBounds() spatial.Rect {
	b := d.bounds
	pad := 0.01 * math.Max(b.Width(), b.Height())
	if pad == 0 {
		pad = 0.5
	}
	return spatial.Rect{MinX: b.MinX - pad, MinY: b.MinY - pad, MaxX: b.MaxX + pad, MaxY: b.MaxY + pad}
}

// EuclideanDist returns the normalized spatial distance between two users,
// +Inf when either lacks a location (the paper's convention).
func (d *Dataset) EuclideanDist(a, b int32) float64 {
	if !d.Located[a] || !d.Located[b] {
		return math.Inf(1)
	}
	return d.Pts[a].Dist(d.Pts[b])
}

// Stats summarizes the dataset in the shape of the paper's Table 2.
type Stats struct {
	Name        string
	NumVertices int
	NumEdges    int
	NumLocated  int
	AvgDegree   float64
}

// Stats computes Table 2 statistics.
func (d *Dataset) Stats() Stats {
	return Stats{
		Name:        d.Name,
		NumVertices: d.G.NumVertices(),
		NumEdges:    d.G.NumEdges(),
		NumLocated:  d.NumLocated(),
		AvgDegree:   d.G.AvgDegree(),
	}
}
