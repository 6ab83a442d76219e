package graph

// BidirectionalResult reports the outcome of a point-to-point bidirectional
// search.
type BidirectionalResult struct {
	Dist    float64 // Infinity when unreachable
	Meeting VertexID
	Pops    int // vertices settled across both directions
}

// BidirectionalDijkstra computes the s-t distance by alternating a forward
// and a reverse Dijkstra until the best meeting path can no longer be
// improved. With zero heuristics this is the classic algorithm; with
// consistent landmark heuristics it is the bidirectional ALT search of
// Goldberg & Harrelson [25], which AIS-BID issues afresh for every candidate
// evaluation (paper §6, Fig. 10).
//
// hF must lower-bound the remaining distance to t; hR must lower-bound the
// remaining distance to s. Stopping rule: with consistent heuristics, once
// best ≤ the head key of either frontier, no undiscovered path can beat
// best (see DESIGN.md §4 and Algorithm 3 of the paper, which stops on the
// reverse head key alone).
func BidirectionalDijkstra(g *Graph, s, t VertexID, hF, hR Heuristic, fwdPool, revPool *AStarPool) BidirectionalResult {
	if s == t {
		return BidirectionalResult{Dist: 0, Meeting: s}
	}
	if fwdPool == nil {
		fwdPool = NewAStarPool(g.NumVertices())
	}
	if revPool == nil {
		revPool = NewAStarPool(g.NumVertices())
	}
	fwd := fwdPool.NewSearch(g, s, hF)
	rev := revPool.NewSearch(g, t, hR)

	best := Infinity
	meet := VertexID(-1)
	consider := func(v VertexID, total float64) {
		if total < best {
			best = total
			meet = v
		}
	}

	for {
		fKey, fOK := fwd.HeadKey()
		rKey, rOK := rev.HeadKey()
		if !fOK && !rOK {
			break
		}
		// Either frontier's head key certifies optimality once reached.
		if (fOK && best <= fKey) || (rOK && best <= rKey) {
			break
		}
		if fOK {
			v, dv, _ := fwd.Pop()
			if dr, ok := rev.SettledDist(v); ok {
				consider(v, dv+dr)
			}
			fwd.Expand(v)
		}
		if rOK {
			v, dv, _ := rev.Pop()
			if df, ok := fwd.SettledDist(v); ok {
				consider(v, df+dv)
				// Matching Algorithm 3 line 18: a vertex already settled by
				// the opposite search need not be expanded.
			} else {
				rev.Expand(v)
			}
		}
	}
	return BidirectionalResult{Dist: best, Meeting: meet, Pops: fwd.Pops() + rev.Pops()}
}
