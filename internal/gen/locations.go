package gen

import (
	"fmt"
	"math"
	"math/rand"

	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// CorrelationSign selects the Fig. 14a dataset family.
type CorrelationSign int

const (
	// PositiveCorrelation places socially-near users spatially near
	// (ρ = +1 in the paper's d̄ = ρ·p + ε formula).
	PositiveCorrelation CorrelationSign = iota
	// NegativeCorrelation places socially-near users spatially far (ρ = −1).
	NegativeCorrelation
	// IndependentCorrelation randomly permutes locations, destroying any
	// social↔spatial relationship.
	IndependentCorrelation
)

func (c CorrelationSign) String() string {
	switch c {
	case PositiveCorrelation:
		return "positive"
	case NegativeCorrelation:
		return "negative"
	case IndependentCorrelation:
		return "independent"
	default:
		return fmt.Sprintf("CorrelationSign(%d)", int(c))
	}
}

// CorrelatedLocations implements the paper's Fig. 14a synthesis for a chosen
// query vertex: every user u is placed on a circle of radius
// d̄ = |ρ·p̂(v_q, u) + ε| around the query's location, where p̂ is the social
// distance normalized to [0,1] and ε ∈ [−0.15, 0.15]. Negative correlation
// uses d̄ = 1 − p̂ + ε so socially-near users land far away. Unreachable
// users get independent uniform positions. The query user sits at the
// center. All users are located.
func CorrelatedLocations(g *graph.Graph, q graph.VertexID, sign CorrelationSign, rng *rand.Rand) ([]spatial.Point, []bool) {
	n := g.NumVertices()
	dist := g.DistancesFrom(q)
	maxD := 0.0
	for _, d := range dist {
		if d != graph.Infinity && d > maxD {
			maxD = d
		}
	}
	if maxD == 0 {
		maxD = 1
	}
	center := spatial.Point{X: 0.5, Y: 0.5}
	pts := make([]spatial.Point, n)
	located := make([]bool, n)
	for v := 0; v < n; v++ {
		located[v] = true
		if graph.VertexID(v) == q {
			pts[v] = center
			continue
		}
		if dist[v] == graph.Infinity || sign == IndependentCorrelation {
			pts[v] = spatial.Point{X: rng.Float64(), Y: rng.Float64()}
			continue
		}
		p := dist[v] / maxD
		eps := (rng.Float64() - 0.5) * 0.3 // ε ∈ [−0.15, 0.15]
		var r float64
		if sign == PositiveCorrelation {
			r = p + eps
		} else {
			r = 1 - p + eps
		}
		if r < 0 {
			r = -r
		}
		if r > 1 {
			r = 1
		}
		// Radius is in [0,1]; scale to at most 0.5 so the circle stays
		// inside the unit square around the center.
		r *= 0.5
		theta := rng.Float64() * 2 * math.Pi
		pts[v] = spatial.Point{
			X: clamp01(center.X + r*math.Cos(theta)),
			Y: clamp01(center.Y + r*math.Sin(theta)),
		}
	}
	return pts, located
}
