// Package core implements the paper's primary contribution: the Social and
// Spatial Ranking Query (SSRQ) and its complete suite of processing
// algorithms — the one-domain baselines SFA and SPA (§4.1), the Twofold
// Search Approach with round-robin and Quick-Combine probing plus landmark
// pruning (§4.2), the Aggregate Index Search family AIS-BID / AIS⁻ / AIS
// with the shared GraphDist submodule, computation sharing and delayed
// evaluation (§5), the §5.4 pre-computation variant, and a brute-force
// reference.
package core

import (
	"fmt"
	"math"

	"ssrq/internal/aggindex"
	"ssrq/internal/spatial"
)

// Params are the per-query SSRQ parameters (Table 3).
type Params struct {
	// K is the number of users to report.
	K int
	// Alpha weighs social against spatial proximity (Eq. 1). It must lie
	// strictly inside (0, 1): the endpoints would multiply a zero
	// coefficient with the +Inf proximities used for unlocated users and
	// foreign components, which the paper never exercises (it sweeps
	// 0.1–0.9). Callers wanting a single-domain ranking can use the kNN
	// helpers directly.
	Alpha float64
	// Filter restricts the result to users whose label bitmask intersects
	// it (labels[u] & Filter != 0). Zero means unfiltered. On an unlabeled
	// dataset a nonzero filter matches nobody. The query user itself is
	// never part of the result, so its own labels are irrelevant.
	Filter uint64
}

// matches reports whether a user with label mask lbl passes the filter.
func (p Params) matches(lbl uint64) bool {
	return p.Filter == 0 || lbl&p.Filter != 0
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("core: k = %d must be ≥ 1", p.K)
	}
	if !(p.Alpha > 0 && p.Alpha < 1) {
		return fmt.Errorf("core: alpha = %v must lie strictly in (0, 1)", p.Alpha)
	}
	return nil
}

// combine evaluates the ranking function f = α·p + (1−α)·d (Eq. 1) on
// normalized proximities. With α strictly inside (0,1), +Inf in either
// domain propagates to +Inf, which encodes both paper conventions:
// unlocated users and cross-component users can never enter a result.
func combine(alpha, p, d float64) float64 {
	return alpha*p + (1-alpha)*d
}

// finite reports whether f is a real ranking value.
func finite(f float64) bool { return !math.IsInf(f, 1) && !math.IsNaN(f) }

// spatialDist returns the Euclidean distance from the query location qpt to
// user v's position in whichever snapshot of the view locates v, +Inf when
// none does (the paper's convention). The query location is threaded
// explicitly because in a sharded view q is located in one shard's grid only.
func spatialDist(sns []*aggindex.Snapshot, qpt spatial.Point, v int32) float64 {
	d := math.Inf(1)
	for _, sn := range sns {
		if g := sn.Grid(); g.Located(v) {
			d = min(d, g.Point(v).Dist(qpt))
		}
	}
	return d
}

// gridsOf fills the pooled grid list with the view's spatial snapshots, the
// input of the multi-snapshot NN stream.
func (p *queryPools) gridsOf(sns []*aggindex.Snapshot) []*spatial.Snapshot {
	p.grids = p.grids[:0]
	for _, sn := range sns {
		p.grids = append(p.grids, sn.Grid())
	}
	return p.grids
}
