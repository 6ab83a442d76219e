package gen

import (
	"fmt"
	"math"
	"math/rand"

	"ssrq/internal/spatial"
)

// This file holds the literature-derived workload generators behind the
// "urban" and "homophily" presets. Both attach per-user label bitmasks
// (derived from the community that shaped the user's location), so filtered
// queries on these datasets face spatially-clustered labels — the regime
// where the AIS cell-mask pruning actually has subtrees to discard.

// UrbanConfig drives UrbanGeoSocial.
type UrbanConfig struct {
	// N is the number of users, M the edges each arriving user creates.
	N, M int
	// Cities is the number of Gaussian population clusters; Sigma their
	// spread as a fraction of the unit square (default 0.04).
	Cities int
	Sigma  float64
	// DistScale is the characteristic distance d₀ of the attachment kernel
	// (default 0.05 of the unit square); Gamma its decay exponent (default
	// 1, the ~d⁻¹ law reported for urban social networks).
	DistScale float64
	Gamma     float64
	// LocatedFrac is the fraction of users whose location the dataset
	// exposes.
	LocatedFrac float64
}

// UrbanGeoSocial generates a geo-social dataset with distance-dependent edge
// probability: candidate endpoints arrive by preferential attachment but are
// accepted with probability 1/(1+(d/d₀)^γ), the distance-decay law
// Herrera-Yagüe et al. ("The anatomy of urban social networks") measure on
// country-scale communication graphs. Unlike GeoSocial — where the latent
// geography that shapes edges is mostly decorrelated from the observed one —
// the observed location here IS the latent one: distance decay is a statement
// about where people actually are. Returns edges, points, located flags and
// per-user label masks (one bit per home city, so labels are spatially
// clustered by construction).
func UrbanGeoSocial(cfg UrbanConfig, rng *rand.Rand) ([]edge, []spatial.Point, []bool, []uint64, error) {
	return urbanGeoSocial(cfg, rng, newArrivals(cfg.N*cfg.M))
}

// urbanGeoSocial is UrbanGeoSocial deduplicating through es.
func urbanGeoSocial(cfg UrbanConfig, rng *rand.Rand, es edgeAdder) ([]edge, []spatial.Point, []bool, []uint64, error) {
	if cfg.N < 2 || cfg.M < 1 || cfg.M >= cfg.N {
		return nil, nil, nil, nil, fmt.Errorf("gen: UrbanGeoSocial N=%d M=%d invalid", cfg.N, cfg.M)
	}
	if cfg.Cities < 1 {
		cfg.Cities = 12
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = 0.04
	}
	if cfg.DistScale == 0 {
		cfg.DistScale = 0.05
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 1
	}
	if cfg.LocatedFrac <= 0 || cfg.LocatedFrac > 1 {
		cfg.LocatedFrac = 1
	}

	centers := make([]spatial.Point, cfg.Cities)
	for i := range centers {
		centers[i] = spatial.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	pts := make([]spatial.Point, cfg.N)
	located := make([]bool, cfg.N)
	labels := make([]uint64, cfg.N)
	city := make([]int, cfg.N)
	for v := 0; v < cfg.N; v++ {
		city[v] = rng.Intn(cfg.Cities)
		c := centers[city[v]]
		pts[v] = spatial.Point{
			X: clamp01(c.X + rng.NormFloat64()*cfg.Sigma),
			Y: clamp01(c.Y + rng.NormFloat64()*cfg.Sigma),
		}
		located[v] = rng.Float64() < cfg.LocatedFrac
		labels[v] = 1 << uint(city[v]%64)
	}

	// Preferential-attachment proposals, distance-decay acceptance.
	endpoints := make([]int32, 0, 2*cfg.N*cfg.M)
	seed := cfg.M + 1
	if seed > cfg.N {
		seed = cfg.N
	}
	for v := 0; v < seed; v++ {
		for u := 0; u < v; u++ {
			if es.add(int32(u), int32(v)) {
				endpoints = append(endpoints, int32(u), int32(v))
			}
		}
	}
	accept := func(a, b int32) bool {
		d := pts[a].Dist(pts[b]) / cfg.DistScale
		return rng.Float64() < 1/(1+math.Pow(d, cfg.Gamma))
	}
	for v := seed; v < cfg.N; v++ {
		attached := 0
		for guard := 0; attached < cfg.M && guard < 120*cfg.M; guard++ {
			u := endpoints[rng.Intn(len(endpoints))]
			if u == int32(v) || es.has(u, int32(v)) || !accept(u, int32(v)) {
				continue
			}
			if es.add(u, int32(v)) {
				endpoints = append(endpoints, u, int32(v))
				attached++
			}
		}
		// Degenerate fallback keeps the degree target under adversarial
		// geometry: attach to arbitrary distinct vertices, no decay test.
		for u := int32(0); attached < cfg.M && u < int32(v); u++ {
			if es.add(u, int32(v)) {
				endpoints = append(endpoints, u, int32(v))
				attached++
			}
		}
	}
	return es.edges(), pts, located, labels, nil
}

// HomophilyConfig drives HomophilyGeoSocial.
type HomophilyConfig struct {
	N, M int
	// Depth is the depth of the binary identity hierarchy (2^Depth leaf
	// groups, default 4 → 16 groups).
	Depth int
	// Alpha is the homophily strength: the probability of befriending
	// someone at hierarchy distance h decays as exp(−Alpha·h) (default 1).
	Alpha float64
	// Sigma is each leaf group's spatial spread (default 0.04).
	Sigma float64
	// LocatedFrac is the fraction of users whose location is exposed.
	LocatedFrac float64
}

// HomophilyGeoSocial generates a dataset with hierarchical attribute
// homophily after Watts, Dodds and Newman ("Identity and search in social
// networks"): users occupy the leaves of a binary identity hierarchy, and an
// arriving user befriends a target sampled by hierarchy distance h with
// probability ∝ exp(−α·h) — mostly own group, occasionally a sibling group,
// rarely across the top split. Leaf groups are laid out on a spatial grid so
// hierarchically-close groups are also spatially close, and each user's label
// bit is their leaf group: filters aligned with the hierarchy select
// spatially-coherent regions.
func HomophilyGeoSocial(cfg HomophilyConfig, rng *rand.Rand) ([]edge, []spatial.Point, []bool, []uint64, error) {
	return homophilyGeoSocial(cfg, rng, newArrivals(cfg.N*cfg.M))
}

// homophilyGeoSocial is HomophilyGeoSocial deduplicating through es.
func homophilyGeoSocial(cfg HomophilyConfig, rng *rand.Rand, es edgeAdder) ([]edge, []spatial.Point, []bool, []uint64, error) {
	if cfg.N < 2 || cfg.M < 1 || cfg.M >= cfg.N {
		return nil, nil, nil, nil, fmt.Errorf("gen: HomophilyGeoSocial N=%d M=%d invalid", cfg.N, cfg.M)
	}
	if cfg.Depth < 1 {
		cfg.Depth = 4
	}
	if cfg.Depth > 6 {
		cfg.Depth = 6 // 64 leaf groups: one label bit each
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = 0.04
	}
	if cfg.LocatedFrac <= 0 || cfg.LocatedFrac > 1 {
		cfg.LocatedFrac = 1
	}
	groups := 1 << uint(cfg.Depth)

	// Grid layout by bit-deinterleave of the group id: adjacent hierarchy
	// leaves land in adjacent grid cells, so hierarchy distance correlates
	// with spatial distance.
	side := 1
	for side*side < groups {
		side *= 2
	}
	centers := make([]spatial.Point, groups)
	for g := 0; g < groups; g++ {
		var gx, gy int
		for b := 0; b < cfg.Depth; b++ {
			if g&(1<<uint(b)) != 0 {
				if b%2 == 0 {
					gx |= 1 << uint(b/2)
				} else {
					gy |= 1 << uint(b/2)
				}
			}
		}
		centers[g] = spatial.Point{
			X: (float64(gx) + 0.5) / float64(side),
			Y: (float64(gy) + 0.5) / float64(side),
		}
	}

	pts := make([]spatial.Point, cfg.N)
	located := make([]bool, cfg.N)
	labels := make([]uint64, cfg.N)
	group := make([]int, cfg.N)
	byGroup := make([][]int32, groups)
	for v := 0; v < cfg.N; v++ {
		group[v] = rng.Intn(groups)
		c := centers[group[v]]
		pts[v] = spatial.Point{
			X: clamp01(c.X + rng.NormFloat64()*cfg.Sigma),
			Y: clamp01(c.Y + rng.NormFloat64()*cfg.Sigma),
		}
		located[v] = rng.Float64() < cfg.LocatedFrac
		labels[v] = 1 << uint(group[v]%64)
	}

	// Cumulative distribution over hierarchy distances 0..Depth with
	// p(h) ∝ exp(−α·h).
	cum := make([]float64, cfg.Depth+1)
	total := 0.0
	for h := 0; h <= cfg.Depth; h++ {
		total += math.Exp(-cfg.Alpha * float64(h))
		cum[h] = total
	}
	sampleGroup := func(g int) int {
		x := rng.Float64() * total
		h := 0
		for h < cfg.Depth && x > cum[h] {
			h++
		}
		if h == 0 {
			return g
		}
		// Groups at hierarchy distance h share the top Depth−h bits and
		// differ at bit h−1; the h−1 bits below are free.
		t := g ^ (1 << uint(h-1))
		if h > 1 {
			mask := (1 << uint(h-1)) - 1
			t = (t &^ mask) | rng.Intn(1<<uint(h-1))
		}
		return t
	}

	seedN := cfg.M + 1
	if seedN > cfg.N {
		seedN = cfg.N
	}
	for v := 0; v < seedN; v++ {
		for u := 0; u < v; u++ {
			es.add(int32(u), int32(v))
		}
		byGroup[group[v]] = append(byGroup[group[v]], int32(v))
	}
	for v := seedN; v < cfg.N; v++ {
		attached := 0
		for guard := 0; attached < cfg.M && guard < 60*cfg.M; guard++ {
			members := byGroup[sampleGroup(group[v])]
			if len(members) == 0 {
				continue
			}
			if es.add(members[rng.Intn(len(members))], int32(v)) {
				attached++
			}
		}
		for u := int32(0); attached < cfg.M && u < int32(v); u++ {
			if es.add(u, int32(v)) {
				attached++
			}
		}
		byGroup[group[v]] = append(byGroup[group[v]], int32(v))
	}
	return es.edges(), pts, located, labels, nil
}
