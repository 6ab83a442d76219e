package gen

import (
	"fmt"
	"math/rand"

	"ssrq/internal/dataset"
	"ssrq/internal/graph"
	"ssrq/internal/spatial"
)

// Preset identifies a paper-dataset substitute (Table 2 / Fig. 13) or a
// literature-derived workload profile.
type Preset struct {
	Name string
	// AvgDegreeTarget drives the attachment parameter. The three paper
	// presets share the GeoSocial model (half the edges same-city, half
	// preferential attachment) and differ only in degree and located
	// fraction.
	AvgDegreeTarget float64
	// LocatedFrac matches the paper's located-user percentages.
	LocatedFrac float64
	// Model selects the generator: "" = the default GeoSocial mix,
	// "urban" = distance-dependent edge probability (UrbanGeoSocial),
	// "homophily" = hierarchical attribute homophily (HomophilyGeoSocial).
	// The non-default models also attach per-user labels.
	Model string
}

// Paper-dataset presets. Sizes are a parameter: the paper's full scales
// (196K / 1.88M / 124K users) are reachable with the same presets but the
// default experiment harness runs laptop-scale (see DESIGN.md §2).
var (
	// GowallaPreset mirrors Gowalla: avg degree 9.7, 54.4% located users.
	GowallaPreset = Preset{Name: "gowalla", AvgDegreeTarget: 9.7, LocatedFrac: 0.544}
	// FoursquarePreset mirrors Foursquare: avg degree 9.5, 60.3% located.
	FoursquarePreset = Preset{Name: "foursquare", AvgDegreeTarget: 9.5, LocatedFrac: 0.603}
	// TwitterPreset mirrors the Singapore Twitter set: avg degree 57.7,
	// all users geo-tagged.
	TwitterPreset = Preset{Name: "twitter", AvgDegreeTarget: 57.7, LocatedFrac: 1.0}
	// UrbanPreset models a metropolitan LBSN with distance-dependent edge
	// probability (Herrera-Yagüe et al.) and per-city user labels.
	UrbanPreset = Preset{Name: "urban", AvgDegreeTarget: 12, LocatedFrac: 0.85, Model: "urban"}
	// HomophilyPreset models hierarchical attribute homophily (Watts et
	// al.) with per-group user labels laid out on a spatial grid.
	HomophilyPreset = Preset{Name: "homophily", AvgDegreeTarget: 10, LocatedFrac: 0.7, Model: "homophily"}
)

// Dataset synthesizes an n-user dataset matching the preset: a geo-social
// graph (spatially-local edges mixed with preferential attachment, see
// GeoSocial) with the target average degree, the paper's degree-product edge
// weights, Gaussian-city locations, and the preset's located fraction.
// Equivalent to DatasetFrom with rand.NewSource(seed): the same (preset, n,
// seed) triple always reproduces the same dataset, byte for byte (the
// golden-seed regression test pins it).
func (p Preset) Dataset(n int, seed int64) (*dataset.Dataset, error) {
	return p.DatasetFrom(n, rand.NewSource(seed))
}

// DatasetFrom is Dataset with an explicit randomness source — the seam that
// makes every experiment in this repository seed-reproducible: all
// randomness in synthesis flows from src and nowhere else (no global rand,
// no time-based seeding anywhere in gen or exp).
func (p Preset) DatasetFrom(n int, src rand.Source) (*dataset.Dataset, error) {
	if n < 10 {
		return nil, fmt.Errorf("gen: preset dataset needs n ≥ 10, got %d", n)
	}
	rng := rand.New(src)

	// Each arriving user adds m edges, so m < n. A world too small for the
	// preset's degree becomes the complete graph: the growth models seed
	// with a clique on m+1 users.
	m := min(max(int(p.AvgDegreeTarget/2+0.5), 1), n-1)
	cities := 8 + n/2000 // more clusters as the world grows
	if cities > 40 {
		cities = 40
	}
	var (
		edges   []edge
		pts     []spatial.Point
		located []bool
		labels  []uint64
		err     error
	)
	switch p.Model {
	case "urban":
		edges, pts, located, labels, err = UrbanGeoSocial(UrbanConfig{
			N: n, M: m, Cities: cities, LocatedFrac: p.LocatedFrac,
		}, rng)
	case "homophily":
		edges, pts, located, labels, err = HomophilyGeoSocial(HomophilyConfig{
			N: n, M: m, LocatedFrac: p.LocatedFrac,
		}, rng)
	default:
		edges, pts, located, err = GeoSocial(GeoSocialConfig{
			N:           n,
			M:           m,
			PLocal:      0.5,
			Cities:      cities,
			LocatedFrac: p.LocatedFrac,
		}, rng)
	}
	if err != nil {
		return nil, err
	}
	g, err := BuildGraph(n, edges, DegreeProductWeights(n, edges))
	if err != nil {
		return nil, err
	}
	ds, err := dataset.New(p.Name, g, pts, located)
	if err != nil {
		return nil, err
	}
	if labels != nil {
		if err := ds.SetLabels(labels); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// CorrelatedDataset builds the Fig. 14a dataset family: the graph comes from
// the given preset, but locations follow the correlated synthesis around a
// chosen query vertex. Equivalent to CorrelatedDatasetFrom with
// rand.NewSource(seed).
func CorrelatedDataset(base *dataset.Dataset, q graph.VertexID, sign CorrelationSign, seed int64) (*dataset.Dataset, error) {
	return CorrelatedDatasetFrom(base, q, sign, rand.NewSource(seed))
}

// CorrelatedDatasetFrom is CorrelatedDataset with an explicit randomness
// source.
func CorrelatedDatasetFrom(base *dataset.Dataset, q graph.VertexID, sign CorrelationSign, src rand.Source) (*dataset.Dataset, error) {
	rng := rand.New(src)
	pts, located := CorrelatedLocations(base.G, q, sign, rng)
	return dataset.New(
		fmt.Sprintf("%s-%s", base.Name, sign),
		base.G.ScaleWeights(base.Norms.Social), // undo normalization: New re-normalizes
		pts, located,
	)
}

// SampledDataset builds a Fig. 14b scalability point: a forest-fire sample
// of target users from the base dataset, keeping original locations.
// Equivalent to SampledDatasetFrom with rand.NewSource(seed).
func SampledDataset(base *dataset.Dataset, target int, seed int64) (*dataset.Dataset, error) {
	return SampledDatasetFrom(base, target, rand.NewSource(seed))
}

// SampledDatasetFrom is SampledDataset with an explicit randomness source.
func SampledDatasetFrom(base *dataset.Dataset, target int, src rand.Source) (*dataset.Dataset, error) {
	rng := rand.New(src)
	raw := base.G.ScaleWeights(base.Norms.Social)
	sub, oldIDs, err := ForestFireSample(raw, target, 0.4, rng)
	if err != nil {
		return nil, err
	}
	// Recover raw coordinates before re-normalizing in dataset.New.
	rawPts := make([]spatial.Point, len(base.Pts))
	for i, p := range base.Pts {
		rawPts[i] = spatial.Point{X: p.X * base.Norms.Spatial, Y: p.Y * base.Norms.Spatial}
	}
	pts, located := SampleLocations(rawPts, base.Located, oldIDs)
	return dataset.New(fmt.Sprintf("%s-%dk", base.Name, target/1000), sub, pts, located)
}
