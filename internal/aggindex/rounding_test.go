package aggindex

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
	"ssrq/internal/spatial"
)

// outward returns what a row stores for a cell whose exact landmark
// distances span [lo, hi]: lo rounded down, hi rounded up, as float64s.
func outward(lo, hi float64) (float64, float64) {
	return float64(roundDown(lo)), float64(roundUp(hi))
}

// sameBits reports whether two floats are the same value bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// ulp32 returns the float32 spacing at |x|.
func ulp32(x float64) float64 {
	f := roundUp(math.Abs(x))
	return float64(math.Nextafter32(f, float32(math.Inf(1)))) - float64(f)
}

// TestSummaryRowsRoundOutward pins the float32 summary rows. The rounding
// helpers bracket their argument with the nearest float32 on each side, keep
// ±Inf and saturate finite values beyond MaxFloat32. On generated gowalla
// and urban worlds under move and edge churn, at S = 1 and 4 indexes over one
// substrate, every cell's row is the outward rounding of its members' exact
// min/max, and its Lemma-2 bound is admissible (at most the bound exact
// float64 rows give, and at most every member's exact graph distance to the
// query) and within two float32 ulps of the exact rows' bound.
func TestSummaryRowsRoundOutward(t *testing.T) {
	t.Run("helpers", func(t *testing.T) {
		inf := math.Inf(1)
		xs := []float64{0, 1, -1, 0.1, -0.1, 1.0 / 3, 2.5e-46, 1e-40, 1e-30, 16777217, 3.4e38,
			math.MaxFloat32, math.Nextafter(math.MaxFloat32, inf), 1e39, 1e300, -1e300, math.MaxFloat64,
			-math.MaxFloat32, math.Nextafter(-math.MaxFloat32, -inf), inf, -inf}
		rng := rand.New(rand.NewSource(49))
		for i := 0; i < 2000; i++ {
			x := math.Ldexp(rng.Float64(), rng.Intn(300)-150)
			if i%2 == 1 {
				x = -x
			}
			xs = append(xs, x, float64(float32(x)))
		}
		for _, x := range xs {
			lo, hi := roundDown(x), roundUp(x)
			if !(float64(lo) <= x && x <= float64(hi)) {
				t.Fatalf("%g: rounds to [%g, %g], not around it", x, lo, hi)
			}
			if math.IsInf(x, 0) {
				if float64(lo) != x || float64(hi) != x {
					t.Fatalf("%g: rounds to [%g, %g], want itself", x, lo, hi)
				}
				continue
			}
			// No float32 lies strictly between x and either rounding.
			if above := math.Nextafter32(lo, float32(math.Inf(1))); float64(above) <= x && float64(lo) != x {
				t.Fatalf("%g: rounds down to %g, but %g is nearer below", x, lo, above)
			}
			if below := math.Nextafter32(hi, float32(math.Inf(-1))); float64(below) >= x && float64(hi) != x {
				t.Fatalf("%g: rounds up to %g, but %g is nearer above", x, hi, below)
			}
			if f := float32(x); float64(f) == x && (lo != f || hi != f) {
				t.Fatalf("%g: a float32 rounds to [%g, %g]", x, lo, hi)
			}
			if x > math.MaxFloat32 && (lo != math.MaxFloat32 || !math.IsInf(float64(hi), 1)) {
				t.Fatalf("%g: rounds to [%g, %g], want [MaxFloat32, +Inf]", x, lo, hi)
			}
		}
	})
	for _, preset := range []gen.Preset{gen.GowallaPreset, gen.UrbanPreset} {
		for _, S := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/S=%d", preset.Name, S), func(t *testing.T) {
				checkRoundedBoundsUnderChurn(t, preset, S)
			})
		}
	}
}

func checkRoundedBoundsUnderChurn(t *testing.T, preset gen.Preset, S int) {
	const n = 1200
	ds, err := preset.Dataset(n, 49)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := landmark.Select(ds.G, 8, landmark.Farthest, 49)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSocialSubstrate(lm, ds.G, Config{Labels: ds.Labels})
	if err != nil {
		t.Fatal(err)
	}
	bounds := ds.PaddedBounds()
	layout, err := spatial.NewLayout(bounds, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	ixs := make([]*Index, S)
	for s := range ixs {
		located := make([]bool, n)
		for id := range located {
			located[id] = ds.Located[id] && id%S == s
		}
		grid, err := spatial.NewGrid(layout, ds.Pts, located)
		if err != nil {
			t.Fatal(err)
		}
		if ixs[s], err = NewShared(grid, sub); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(int64(S)))
	point := func() spatial.Point {
		return spatial.Point{
			X: bounds.MinX + (rng.Float64()*1.2-0.1)*bounds.Width(),
			Y: bounds.MinY + (rng.Float64()*1.2-0.1)*bounds.Height(),
		}
	}
	for round := 0; round <= 8; round++ {
		if round > 0 {
			locs := make([][]Op, S)
			for i := 0; i < 60; i++ {
				id := int32(rng.Intn(n))
				op := Op{ID: id, To: point()}
				if rng.Intn(8) == 0 {
					op = Op{ID: id, Remove: true}
				}
				locs[id%int32(S)] = append(locs[id%int32(S)], op)
			}
			Apply(sub, randomEdgeOps(rng, n, 1+rng.Intn(12)), ixs, locs)
		}
		for s, ix := range ixs {
			sn := ix.Snapshot()
			for probe := 0; probe < 3; probe++ {
				q := graph.VertexID(rng.Intn(n))
				checkRoundedBounds(t, fmt.Sprintf("round %d index %d q %d", round, s, q), sn, q)
			}
		}
	}
}

// checkRoundedBounds checks every cell of one epoch against its members'
// exact min/max and graph distances from q: the row is their outward
// rounding bit for bit, and the Lemma-2 bound is admissible and within two
// float32 ulps of the exact rows' bound.
func checkRoundedBounds(t *testing.T, step string, sn *Snapshot, q graph.VertexID) {
	t.Helper()
	g, lm := sn.Grid(), sn.Landmarks()
	layout, m := g.Layout(), sn.m
	dist := sn.SocialGraph().DistancesFrom(q)
	qvec := lm.AppendVertexVector(nil, q)
	// exact[idx] is the cell's exact float64 row; near[idx] its members'
	// least graph distance from q. Built at the leaves, then level by level
	// from the children.
	var exact [][]float64
	var near []float64
	for l := layout.LeafLevel(); l >= 0; l-- {
		cells := layout.NumCells(l)
		lvlExact, lvlNear := make([][]float64, cells), make([]float64, cells)
		for idx := int32(0); idx < int32(cells); idx++ {
			r := make([]float64, 2*m)
			for j := 0; j < m; j++ {
				r[j], r[m+j] = math.Inf(1), math.Inf(-1)
			}
			lvlNear[idx] = math.Inf(1)
			widenExact := func(o []float64, d float64) {
				for j := 0; j < m; j++ {
					r[j], r[m+j] = math.Min(r[j], o[j]), math.Max(r[m+j], o[m+j])
				}
				lvlNear[idx] = math.Min(lvlNear[idx], d)
			}
			if l == layout.LeafLevel() {
				for _, u := range g.CellUsers(idx) {
					vec := lm.VertexRow(u)
					widenExact(append(append([]float64(nil), vec...), vec...), dist[u])
				}
			} else {
				for _, c := range layout.ChildIndices(l, idx, nil) {
					widenExact(exact[c], near[c])
				}
			}
			lvlExact[idx] = r
			for j := 0; j < m; j++ {
				lo, hi := outward(r[j], r[m+j])
				if !sameBits(sn.MinSummary(l, idx, j), lo) || !sameBits(sn.MaxSummary(l, idx, j), hi) {
					t.Fatalf("%s: level %d cell %d lm %d: row (%v, %v), exact (%v, %v) rounds to (%v, %v)",
						step, l, idx, j, sn.MinSummary(l, idx, j), sn.MaxSummary(l, idx, j), r[j], r[m+j], lo, hi)
				}
			}
			// The rounded row's bound never exceeds the exact row's, which
			// is admissible up to the float64 rounding of d(l,u) − d(l,q)
			// (the 1e-9 every soundness test of the package allows).
			got, ref := sn.SocialLowerBound(l, idx, qvec), lemma2(r, m, qvec)
			if got > ref || got > lvlNear[idx]+1e-9 {
				t.Fatalf("%s: level %d cell %d: bound %v, exact rows give %v, a member's distance is %v", step, l, idx, got, ref, lvlNear[idx])
			}
			tol := 0.0
			for _, x := range r {
				if !math.IsInf(x, 0) {
					tol = math.Max(tol, 2*ulp32(x))
				}
			}
			if got < ref-tol {
				t.Fatalf("%s: level %d cell %d: bound %v, exact rows give %v (tolerance %v)", step, l, idx, got, ref, tol)
			}
		}
		exact, near = lvlExact, lvlNear
	}
}

// TestLeafRederiveMatchesWiden pins recomputeLeaf's one rounding per
// component to the fold it replaced, a widen per member: on random member
// sets, the exact float64 extremes rounded outward once equal the per-member
// fold bit for bit. Vectors mix ordinary distances, +Inf (a landmark the
// member cannot reach), values above MaxFloat32, exact float32s and values
// one float64 ulp off them, so both the saturating and the tie cases of the
// rounding are reached.
func TestLeafRederiveMatchesWiden(t *testing.T) {
	const m = 8
	inf := math.Inf(1)
	special := []float64{0, inf, 1e39, math.MaxFloat64, math.MaxFloat32,
		math.Nextafter(math.MaxFloat32, inf), 16777217, 0.1, float64(float32(0.1))}
	rng := rand.New(rand.NewSource(51))
	fold, once := make([]float32, 2*m), make([]float32, 2*m)
	ex := make([]float64, 2*m)
	for trial := 0; trial < 20000; trial++ {
		members := rng.Intn(6) // 0 is the empty leaf
		if trial%7 == 0 {
			members = 40 + rng.Intn(40)
		}
		emptyRow(fold, m)
		emptyRow(ex, m)
		for i := 0; i < members; i++ {
			vec := make([]float64, m)
			for j := range vec {
				switch r := rng.Intn(10); {
				case r < 2:
					vec[j] = special[rng.Intn(len(special))]
				case r < 4:
					f := float64(float32(rng.Float64() * 4))
					vec[j] = math.Nextafter(f, f+float64(rng.Intn(3)-1))
				default:
					vec[j] = math.Ldexp(rng.Float64(), rng.Intn(20)-10)
				}
			}
			widen(fold, vec)
			widenExact(ex, vec)
		}
		roundOutward(once, ex)
		for j := range fold {
			if math.Float32bits(fold[j]) != math.Float32bits(once[j]) {
				t.Fatalf("trial %d (%d members), component %d: widen fold %g, one rounding %g", trial, members, j, fold[j], once[j])
			}
		}
	}
}
