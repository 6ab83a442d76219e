package gen

import (
	"fmt"
	"math/rand"

	"ssrq/internal/spatial"
)

// GeoSocialConfig drives the integrated geo-social generator used by the
// dataset presets. Real LBSN graphs (the paper's Gowalla/Foursquare) mix
// spatially-local friendships — Scellato et al. [16] report ~30% of new
// links are "place friends" — with long-range hub-mediated ones. Generating
// locations first and biasing edge formation toward spatial neighbors
// reproduces both the heavy-tailed degrees and the moderate social↔spatial
// correlation the index methods exploit.
type GeoSocialConfig struct {
	// N is the number of users.
	N int
	// M is the number of edges each arriving user creates (avg degree≈2M).
	M int
	// PLocal is the probability an edge targets a same-city user instead
	// of a preferential-attachment endpoint (default 0.5).
	PLocal float64
	// Cities is the number of Gaussian population clusters (default 12).
	Cities int
	// Sigma is the cluster spread as a fraction of the unit square
	// (default 0.04).
	Sigma float64
	// LocatedFrac is the fraction of users whose location is known.
	// Latent positions exist for everyone (they shape the graph); only
	// this fraction is exposed in the dataset.
	LocatedFrac float64
	// ObservedCorr is the probability that a user's *observed* location is
	// the latent one that shaped his/her friendships; otherwise a fresh
	// independent clustered position is drawn. Real LBSNs show weak
	// social↔spatial coupling (the paper's Fig. 7b: Jaccard < 0.1 between
	// SSRQ and either single-domain top-k), so presets keep this low.
	// Default 0.3.
	ObservedCorr float64
}

func (c *GeoSocialConfig) setDefaults() {
	if c.PLocal == 0 {
		c.PLocal = 0.5
	}
	if c.Cities == 0 {
		c.Cities = 12
	}
	if c.Sigma == 0 {
		c.Sigma = 0.04
	}
	if c.LocatedFrac == 0 {
		c.LocatedFrac = 1
	}
	if c.ObservedCorr == 0 {
		c.ObservedCorr = 0.3
	}
}

// GeoSocial generates the full dataset raw material: edges, latent points
// and located flags.
func GeoSocial(cfg GeoSocialConfig, rng *rand.Rand) ([]edge, []spatial.Point, []bool, error) {
	return geoSocial(cfg, rng, newArrivals(cfg.N*cfg.M))
}

// geoSocial is GeoSocial deduplicating through es.
func geoSocial(cfg GeoSocialConfig, rng *rand.Rand, es edgeAdder) ([]edge, []spatial.Point, []bool, error) {
	cfg.setDefaults()
	if cfg.N < 2 || cfg.M < 1 || cfg.M >= cfg.N {
		return nil, nil, nil, fmt.Errorf("gen: GeoSocial N=%d M=%d invalid", cfg.N, cfg.M)
	}
	if cfg.PLocal < 0 || cfg.PLocal > 1 || cfg.LocatedFrac < 0 || cfg.LocatedFrac > 1 {
		return nil, nil, nil, fmt.Errorf("gen: GeoSocial probabilities out of range")
	}

	// Latent geography shapes friendships; observed geography is what the
	// dataset exposes. Keeping them mostly independent reproduces the
	// paper's weak social↔spatial coupling while the latent structure gives
	// the graph the rich (community/hub-avoiding) metric real SNs have.
	if cfg.ObservedCorr < 0 || cfg.ObservedCorr > 1 {
		return nil, nil, nil, fmt.Errorf("gen: ObservedCorr out of range")
	}
	centers := make([]spatial.Point, cfg.Cities)
	for i := range centers {
		centers[i] = spatial.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	gauss := func(c spatial.Point) spatial.Point {
		return spatial.Point{
			X: clamp01(c.X + rng.NormFloat64()*cfg.Sigma),
			Y: clamp01(c.Y + rng.NormFloat64()*cfg.Sigma),
		}
	}
	city := make([]int, cfg.N)
	pts := make([]spatial.Point, cfg.N)
	located := make([]bool, cfg.N)
	for v := 0; v < cfg.N; v++ {
		city[v] = rng.Intn(cfg.Cities)
		latent := gauss(centers[city[v]])
		if rng.Float64() < cfg.ObservedCorr {
			pts[v] = latent
		} else {
			pts[v] = gauss(centers[rng.Intn(cfg.Cities)])
		}
		located[v] = rng.Float64() < cfg.LocatedFrac
	}

	// Edge formation: seed clique, then each arriving user mixes same-city
	// attachment with degree-preferential attachment.
	endpoints := make([]int32, 0, 2*cfg.N*cfg.M)
	byCity := make([][]int32, cfg.Cities)
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
		byCity[city[v]] = append(byCity[city[v]], int32(v))
	}
	for v := seed; v < cfg.N; v++ {
		attached := 0
		for guard := 0; attached < cfg.M && guard < 60*cfg.M; guard++ {
			var u int32
			if locals := byCity[city[v]]; len(locals) > 0 && rng.Float64() < cfg.PLocal {
				u = locals[rng.Intn(len(locals))]
			} else {
				u = endpoints[rng.Intn(len(endpoints))]
			}
			if es.add(u, int32(v)) {
				endpoints = append(endpoints, u, int32(v))
				attached++
			}
		}
		for u := int32(0); attached < cfg.M && u < int32(v); u++ {
			if es.add(u, int32(v)) {
				endpoints = append(endpoints, u, int32(v))
				attached++
			}
		}
		byCity[city[v]] = append(byCity[city[v]], int32(v))
	}
	return es.edges(), pts, located, nil
}
