package graph

// EstimateDiameter lower-bounds the weighted diameter of the component of
// start with the classic double-sweep: Dijkstra from start to find the
// farthest vertex a, then Dijkstra from a; the largest finite distance seen
// is returned. Used as the social-proximity normalization constant
// (DESIGN.md §3) — an exact diameter is infeasible at social-network scale.
func (g *Graph) EstimateDiameter(start VertexID) float64 {
	farthest := func(src VertexID) (VertexID, float64) {
		dist := g.DistancesFrom(src)
		bestV, bestD := src, 0.0
		for v, d := range dist {
			if d != Infinity && d > bestD {
				bestV, bestD = VertexID(v), d
			}
		}
		return bestV, bestD
	}
	a, _ := farthest(start)
	_, d := farthest(a)
	return d
}
