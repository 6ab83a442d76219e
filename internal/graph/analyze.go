package graph

// ConnectedComponents labels every vertex with a component ID in [0, count)
// using iterative BFS (edge weights ignored).
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []VertexID
	for start := 0; start < n; start++ {
		if labels[start] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[start] = id
		queue = append(queue[:0], VertexID(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			nbrs, _ := g.Neighbors(v)
			for _, u := range nbrs {
				if labels[u] < 0 {
					labels[u] = id
					queue = append(queue, u)
				}
			}
		}
	}
	return labels, count
}

// LargestComponent returns the vertices of the largest connected component.
func (g *Graph) LargestComponent() []VertexID {
	labels, count := g.ConnectedComponents()
	if count == 0 {
		return nil
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	members := make([]VertexID, 0, sizes[best])
	for v, l := range labels {
		if l == int32(best) {
			members = append(members, VertexID(v))
		}
	}
	return members
}

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
