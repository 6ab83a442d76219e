package exp

import (
	"fmt"
	"math"
	"sort"

	"ssrq/internal/dataset"
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
)

// Diagnostics quantify the dataset properties that govern which paper
// effects can reproduce (see EXPERIMENTS.md "calibration gap"): the spread
// of the normalized social-distance distribution and the tightness of the
// landmark lower bounds. The paper's headline AIS-vs-all gap requires
// spread distances *and* tight bounds; synthetic small-world graphs cap the
// product of the two (a bound can never exceed the band width).
type Diagnostics struct {
	Dataset string
	// P10/P50/P90 of normalized social distance from a sample of sources.
	P10, P50, P90 float64
	// Tightness is E[landmark lower bound / true distance] over sampled
	// reachable pairs (1.0 = perfect bounds).
	Tightness float64
	// SpatialP50 is the median normalized spatial distance.
	SpatialP50 float64
	Pairs      int
}

// Diagnose samples the dataset with the engine's landmark configuration.
func Diagnose(ds *dataset.Dataset, lm *landmark.Set, sources []graph.VertexID) (Diagnostics, error) {
	if len(sources) == 0 {
		return Diagnostics{}, fmt.Errorf("exp: no diagnostic sources")
	}
	var ps, dsp []float64
	var tightSum float64
	tightCnt := 0
	for _, q := range sources {
		dist := ds.G.DistancesFrom(q)
		step := ds.NumUsers()/2000 + 1
		for v := 0; v < ds.NumUsers(); v += step {
			if graph.VertexID(v) == q {
				continue
			}
			if p := dist[v]; p != graph.Infinity {
				ps = append(ps, p)
				if p > 0 {
					tightSum += lm.LowerBound(q, graph.VertexID(v)) / p
					tightCnt++
				}
			}
			if d := ds.EuclideanDist(int32(q), int32(v)); !math.IsInf(d, 1) {
				dsp = append(dsp, d)
			}
		}
	}
	if len(ps) == 0 || tightCnt == 0 {
		return Diagnostics{}, fmt.Errorf("exp: diagnostic sample empty")
	}
	sort.Float64s(ps)
	sort.Float64s(dsp)
	pct := func(arr []float64, f float64) float64 {
		if len(arr) == 0 {
			return math.NaN()
		}
		return arr[int(f*float64(len(arr)-1))]
	}
	return Diagnostics{
		Dataset:    ds.Name,
		P10:        pct(ps, 0.1),
		P50:        pct(ps, 0.5),
		P90:        pct(ps, 0.9),
		Tightness:  tightSum / float64(tightCnt),
		SpatialP50: pct(dsp, 0.5),
		Pairs:      tightCnt,
	}, nil
}

// RunDiagnostics prints the calibration diagnostics for every default
// dataset (invoked by ssrq-bench -exp diag).
func (s *Suite) RunDiagnostics() error {
	t := Table{
		Title:   "Calibration diagnostics (see EXPERIMENTS.md)",
		Columns: []string{"dataset", "p10", "p50", "p90", "spread", "lm tightness", "spatial p50"},
	}
	for _, name := range []string{"gowalla", "foursquare", "twitter"} {
		e, err := s.Engine(name, DefaultS)
		if err != nil {
			return err
		}
		users := QueryUsers(e.Dataset(), 5, s.Seed)
		d, err := Diagnose(e.Dataset(), e.Landmarks(), users)
		if err != nil {
			return err
		}
		t.AddRow(name, f2(d.P10), f2(d.P50), f2(d.P90),
			f2(d.P90/math.Max(d.P10, 1e-9)), f2(d.Tightness), f2(d.SpatialP50))
	}
	t.Fprint(s.Out)
	return nil
}
