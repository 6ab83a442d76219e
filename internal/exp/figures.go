package exp

import (
	"fmt"
	"time"

	"ssrq/internal/core"
	"ssrq/internal/gen"
	"ssrq/internal/graph"
)

// mainAlgorithms is the line-up of Figs. 8, 9, 13, 14.
var mainAlgorithms = []core.Algorithm{core.SFA, core.SPA, core.TSA, core.TSAQC, core.AIS}

// aisVariants is the Fig. 10 line-up.
var aisVariants = []core.Algorithm{core.AISBID, core.AISMinus, core.AIS}

// bothDatasets are the default evaluation datasets.
var bothDatasets = []string{"gowalla", "foursquare"}

// RunTable2 prints dataset statistics (paper Table 2).
func (s *Suite) RunTable2() error {
	t := Table{
		Title:   "Table 2: Data Statistics (synthetic substitutes, see DESIGN.md)",
		Columns: []string{"Name", "|V|", "|E|", "#locations", "Deg."},
	}
	for _, name := range []string{"gowalla", "foursquare", "twitter"} {
		ds, err := s.Dataset(name)
		if err != nil {
			return err
		}
		st := ds.Stats()
		t.AddRow(st.Name,
			fmt.Sprintf("%d", st.NumVertices),
			fmt.Sprintf("%d", st.NumEdges),
			fmt.Sprintf("%d", st.NumLocated),
			f2(st.AvgDegree))
	}
	t.Fprint(s.Out)
	return nil
}

// HopStats measures how many hops from v_q the furthest member of each SSRQ
// result lies (Fig. 7a).
type HopStats struct {
	Dataset string
	K       int
	Avg     float64
	Max     int
}

// RunFig7a reproduces Fig. 7a: AVG and MAX hop distance of the furthest
// result member across the query workload, per k, on both datasets.
func (s *Suite) RunFig7a() error {
	t := Table{
		Title:   "Fig 7a: hop distance of the furthest SSRQ result (per k)",
		Columns: []string{"dataset", "k", "avg hops", "max hops"},
	}
	for _, name := range bothDatasets {
		e, err := s.Engine(name, DefaultS)
		if err != nil {
			return err
		}
		users := QueryUsers(e.Dataset(), s.Scale.NumQueries, s.Seed)
		for _, k := range KValues {
			hs, err := hopStats(e, users, core.Params{K: k, Alpha: DefaultAlpha})
			if err != nil {
				return err
			}
			hs.Dataset = name
			hs.K = k
			t.AddRow(name, fmt.Sprintf("%d", k), f2(hs.Avg), fmt.Sprintf("%d", hs.Max))
			s.record(Measurement{Dataset: name, Algo: core.AIS, X: float64(k), PopRatio: hs.Avg})
		}
	}
	t.Fprint(s.Out)
	return nil
}

func hopStats(e *core.Engine, users []graph.VertexID, prm core.Params) (HopStats, error) {
	var sum float64
	maxHop, counted := 0, 0
	for _, q := range users {
		res, err := e.Query(core.AIS, q, prm)
		if err != nil {
			return HopStats{}, err
		}
		if len(res.Entries) == 0 {
			continue
		}
		// Expand Dijkstra until every result member is settled; its
		// shortest-path-tree depth is the hop count.
		pending := res.IDSet()
		it := graph.NewDijkstraIterator(e.Dataset().G, q)
		worst := 0
		for len(pending) > 0 {
			v, _, ok := it.Next()
			if !ok {
				break // members with p = +Inf cannot be in a finite-f result
			}
			if pending[v] {
				delete(pending, v)
				if h := int(it.HopsOf(v)); h > worst {
					worst = h
				}
			}
		}
		sum += float64(worst)
		counted++
		if worst > maxHop {
			maxHop = worst
		}
	}
	if counted == 0 {
		return HopStats{}, fmt.Errorf("exp: no non-empty results for hop stats")
	}
	return HopStats{Avg: sum / float64(counted), Max: maxHop}, nil
}

// JaccardPoint is one Fig. 7b measurement.
type JaccardPoint struct {
	Alpha     float64
	VsSocial  float64 // Jaccard(SSRQ, social kNN)
	VsSpatial float64 // Jaccard(SSRQ, Euclidean kNN)
}

// RunFig7b reproduces Fig. 7b: similarity between the SSRQ result and the
// pure social / pure spatial top-k, per α, on the Foursquare substitute.
// The paper finds Jaccard below 0.1 everywhere — SSRQ is a genuinely
// different query.
func (s *Suite) RunFig7b() error {
	e, err := s.Engine("foursquare", DefaultS)
	if err != nil {
		return err
	}
	users := QueryUsers(e.Dataset(), s.Scale.NumQueries, s.Seed)
	t := Table{
		Title:   "Fig 7b: Jaccard(SSRQ, single-domain kNN) on foursquare",
		Columns: []string{"alpha", "vs social", "vs spatial"},
	}
	for _, alpha := range AlphaValues {
		jp, err := jaccardStudy(e, users, core.Params{K: DefaultK, Alpha: alpha})
		if err != nil {
			return err
		}
		jp.Alpha = alpha
		t.AddRow(fmt.Sprintf("%.1f", alpha), ratio(jp.VsSocial), ratio(jp.VsSpatial))
		s.record(
			Measurement{Dataset: "foursquare", Algo: core.AIS, X: alpha, PopRatio: jp.VsSocial},
			Measurement{Dataset: "foursquare", Algo: core.AIS, X: alpha, PopRatio: jp.VsSpatial},
		)
	}
	t.Fprint(s.Out)
	return nil
}

func jaccardStudy(e *core.Engine, users []graph.VertexID, prm core.Params) (JaccardPoint, error) {
	var vsSoc, vsSpa float64
	counted := 0
	for _, q := range users {
		res, err := e.Query(core.AIS, q, prm)
		if err != nil {
			return JaccardPoint{}, err
		}
		ssrq := res.IDSet()
		if len(ssrq) == 0 {
			continue
		}
		social := socialKNN(e.Dataset().G, q, prm.K)
		spatial := make(map[int32]bool, prm.K)
		for _, nb := range e.Grid().KNN(e.Dataset().Pts[q], prm.K, func(id int32) bool { return id == int32(q) }) {
			spatial[nb.ID] = true
		}
		vsSoc += jaccard(ssrq, social)
		vsSpa += jaccard(ssrq, spatial)
		counted++
	}
	if counted == 0 {
		return JaccardPoint{}, fmt.Errorf("exp: no results for jaccard study")
	}
	return JaccardPoint{VsSocial: vsSoc / float64(counted), VsSpatial: vsSpa / float64(counted)}, nil
}

func socialKNN(g *graph.Graph, q graph.VertexID, k int) map[int32]bool {
	it := graph.NewDijkstraIterator(g, q)
	out := make(map[int32]bool, k)
	for len(out) < k {
		v, _, ok := it.Next()
		if !ok {
			break
		}
		if v != q {
			out[int32(v)] = true
		}
	}
	return out
}

func jaccard(a, b map[int32]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for x := range a {
		if b[x] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// RunFig8 reproduces Fig. 8: run-time and pop ratio vs k on both datasets.
// The paper's SFA-CH/SPA-CH/TSA-CH curves are not drawn: on these social
// graphs a contraction hierarchy leaves a hub core of about half the
// vertices, so each point-to-point query costs several full sweeps
// (EXPERIMENTS.md, Fig. 8).
func (s *Suite) RunFig8() error {
	for _, name := range bothDatasets {
		e, err := s.Engine(name, DefaultS)
		if err != nil {
			return err
		}
		users := QueryUsers(e.Dataset(), s.Scale.NumQueries, s.Seed)
		rt := Table{Title: fmt.Sprintf("Fig 8 run-time(ms) vs k — %s", name), Columns: []string{"k"}}
		pr := Table{Title: fmt.Sprintf("Fig 8 pop ratio vs k — %s", name), Columns: []string{"k"}}
		for _, a := range mainAlgorithms {
			rt.Columns = append(rt.Columns, a.String())
			pr.Columns = append(pr.Columns, a.String())
		}
		for _, k := range KValues {
			prm := core.Params{K: k, Alpha: DefaultAlpha}
			rtRow := []string{fmt.Sprintf("%d", k)}
			prRow := []string{fmt.Sprintf("%d", k)}
			for _, a := range mainAlgorithms {
				m, err := runWorkload(e, a, users, prm)
				if err != nil {
					return err
				}
				m.X = float64(k)
				s.record(m)
				rtRow = append(rtRow, ms(m.Runtime))
				prRow = append(prRow, ratio(m.PopRatio))
			}
			rt.AddRow(rtRow...)
			pr.AddRow(prRow...)
		}
		rt.Fprint(s.Out)
		pr.Fprint(s.Out)
	}
	return nil
}

// RunFig9 reproduces Fig. 9: run-time vs α on both datasets.
func (s *Suite) RunFig9() error {
	for _, name := range bothDatasets {
		e, err := s.Engine(name, DefaultS)
		if err != nil {
			return err
		}
		users := QueryUsers(e.Dataset(), s.Scale.NumQueries, s.Seed)
		t := Table{Title: fmt.Sprintf("Fig 9 run-time(ms) vs alpha — %s", name), Columns: []string{"alpha"}}
		for _, a := range mainAlgorithms {
			t.Columns = append(t.Columns, a.String())
		}
		for _, alpha := range AlphaValues {
			row := []string{fmt.Sprintf("%.1f", alpha)}
			for _, a := range mainAlgorithms {
				m, err := runWorkload(e, a, users, core.Params{K: DefaultK, Alpha: alpha})
				if err != nil {
					return err
				}
				m.X = alpha
				s.record(m)
				row = append(row, ms(m.Runtime))
			}
			t.AddRow(row...)
		}
		t.Fprint(s.Out)
	}
	return nil
}

// RunFig10 reproduces Fig. 10: the AIS flavors (AIS-BID, AIS⁻, AIS) vs k —
// run-time and pop ratio on both datasets.
func (s *Suite) RunFig10() error {
	for _, name := range bothDatasets {
		e, err := s.Engine(name, DefaultS)
		if err != nil {
			return err
		}
		users := QueryUsers(e.Dataset(), s.Scale.NumQueries, s.Seed)
		rt := Table{Title: fmt.Sprintf("Fig 10 run-time(ms) vs k — %s", name), Columns: []string{"k"}}
		pr := Table{Title: fmt.Sprintf("Fig 10 pop ratio vs k — %s", name), Columns: []string{"k"}}
		for _, a := range aisVariants {
			rt.Columns = append(rt.Columns, a.String())
			pr.Columns = append(pr.Columns, a.String())
		}
		for _, k := range KValues {
			rtRow := []string{fmt.Sprintf("%d", k)}
			prRow := []string{fmt.Sprintf("%d", k)}
			for _, a := range aisVariants {
				m, err := runWorkload(e, a, users, core.Params{K: k, Alpha: DefaultAlpha})
				if err != nil {
					return err
				}
				m.X = float64(k)
				s.record(m)
				rtRow = append(rtRow, ms(m.Runtime))
				prRow = append(prRow, ratio(m.PopRatio))
			}
			rt.AddRow(rtRow...)
			pr.AddRow(prRow...)
		}
		rt.Fprint(s.Out)
		pr.Fprint(s.Out)
	}
	return nil
}

// RunFig11 reproduces Fig. 11: AIS vs the §5.4 pre-computation (AIS-Cache)
// as the cached-list length t grows. Lists are materialized offline
// (Precompute) so queries measure lookup + fallback cost only.
func (s *Suite) RunFig11() error {
	for _, name := range bothDatasets {
		e, err := s.Engine(name, DefaultS)
		if err != nil {
			return err
		}
		users := QueryUsers(e.Dataset(), s.Scale.NumQueries, s.Seed)
		prm := core.Params{K: DefaultK, Alpha: DefaultAlpha}
		base, err := runWorkload(e, core.AIS, users, prm)
		if err != nil {
			return err
		}
		t := Table{
			Title:   fmt.Sprintf("Fig 11 run-time(ms) vs t — %s (AIS baseline %s ms)", name, ms(base.Runtime)),
			Columns: []string{"t", "AIS", "AIS-Cache"},
		}
		for _, tv := range s.Scale.TValues {
			e.ResetCache(tv)
			e.Precompute(users)
			m, err := runWorkload(e, core.AISCache, users, prm)
			if err != nil {
				return err
			}
			m.X = float64(tv)
			s.record(m)
			t.AddRow(fmt.Sprintf("%d", tv), ms(base.Runtime), ms(m.Runtime))
		}
		t.Fprint(s.Out)
	}
	return nil
}

// RunFig12 reproduces Fig. 12: the effect of grid granularity s on the
// grid-based methods.
func (s *Suite) RunFig12() error {
	algos := []core.Algorithm{core.SPA, core.AISBID, core.AISMinus, core.AIS}
	for _, name := range bothDatasets {
		t := Table{Title: fmt.Sprintf("Fig 12 run-time(ms) vs s — %s", name), Columns: []string{"s"}}
		for _, a := range algos {
			t.Columns = append(t.Columns, a.String())
		}
		for _, gridS := range SValues {
			e, err := s.Engine(name, gridS)
			if err != nil {
				return err
			}
			users := QueryUsers(e.Dataset(), s.Scale.NumQueries, s.Seed)
			row := []string{fmt.Sprintf("%d", gridS)}
			for _, a := range algos {
				m, err := runWorkload(e, a, users, core.Params{K: DefaultK, Alpha: DefaultAlpha})
				if err != nil {
					return err
				}
				m.X = float64(gridS)
				s.record(m)
				row = append(row, ms(m.Runtime))
			}
			t.AddRow(row...)
		}
		t.Fprint(s.Out)
	}
	return nil
}

// RunFig13 reproduces Fig. 13: the high-degree Twitter substitute, run-time
// vs k and vs α.
func (s *Suite) RunFig13() error {
	e, err := s.Engine("twitter", DefaultS)
	if err != nil {
		return err
	}
	users := QueryUsers(e.Dataset(), s.Scale.NumQueries, s.Seed)

	kt := Table{Title: "Fig 13a run-time(ms) vs k — twitter", Columns: []string{"k"}}
	for _, a := range mainAlgorithms {
		kt.Columns = append(kt.Columns, a.String())
	}
	for _, k := range KValues {
		row := []string{fmt.Sprintf("%d", k)}
		for _, a := range mainAlgorithms {
			m, err := runWorkload(e, a, users, core.Params{K: k, Alpha: DefaultAlpha})
			if err != nil {
				return err
			}
			m.X = float64(k)
			s.record(m)
			row = append(row, ms(m.Runtime))
		}
		kt.AddRow(row...)
	}
	kt.Fprint(s.Out)

	at := Table{Title: "Fig 13b run-time(ms) vs alpha — twitter", Columns: []string{"alpha"}}
	for _, a := range mainAlgorithms {
		at.Columns = append(at.Columns, a.String())
	}
	for _, alpha := range AlphaValues {
		row := []string{fmt.Sprintf("%.1f", alpha)}
		for _, a := range mainAlgorithms {
			m, err := runWorkload(e, a, users, core.Params{K: DefaultK, Alpha: alpha})
			if err != nil {
				return err
			}
			m.X = alpha
			s.record(m)
			row = append(row, ms(m.Runtime))
		}
		at.AddRow(row...)
	}
	at.Fprint(s.Out)
	return nil
}

// RunFig14a reproduces Fig. 14a: performance under positive, independent
// and negative social↔spatial correlation. Locations are re-synthesized
// around each query user exactly as the paper describes, so every query
// builds its own engine; the correlated-query workload is therefore smaller.
func (s *Suite) RunFig14a() error {
	base, err := s.Dataset("foursquare")
	if err != nil {
		return err
	}
	numQ := s.Scale.NumQueries / 4
	if numQ < 3 {
		numQ = 3
	}
	users := QueryUsers(base, numQ, s.Seed+101)
	t := Table{Title: "Fig 14a run-time(ms) vs correlation — foursquare-based", Columns: []string{"correlation"}}
	for _, a := range mainAlgorithms {
		t.Columns = append(t.Columns, a.String())
	}
	for si, sign := range []gen.CorrelationSign{gen.PositiveCorrelation, gen.IndependentCorrelation, gen.NegativeCorrelation} {
		totals := make(map[core.Algorithm]Measurement)
		for qi, q := range users {
			ds, err := gen.CorrelatedDataset(base, q, sign, s.Seed+int64(1000*si+qi))
			if err != nil {
				return err
			}
			e, err := core.NewEngine(ds, EngineOptions(DefaultS, s.Seed))
			if err != nil {
				return err
			}
			for _, a := range mainAlgorithms {
				m, err := runWorkload(e, a, []graph.VertexID{q}, core.Params{K: DefaultK, Alpha: DefaultAlpha})
				if err != nil {
					return err
				}
				agg := totals[a]
				agg.Algo = a
				agg.Dataset = ds.Name
				agg.Runtime += m.Runtime
				agg.PopRatio += m.PopRatio
				agg.Queries++
				totals[a] = agg
			}
		}
		row := []string{sign.String()}
		for _, a := range mainAlgorithms {
			agg := totals[a]
			if agg.Queries > 0 {
				agg.Runtime /= time.Duration(agg.Queries)
				agg.PopRatio /= float64(agg.Queries)
			}
			agg.X = float64(si)
			s.record(agg)
			row = append(row, ms(agg.Runtime))
		}
		t.AddRow(row...)
	}
	t.Fprint(s.Out)
	return nil
}

// RunFig14b reproduces Fig. 14b: scalability with data size via Forest-Fire
// sampling of the largest Foursquare substitute.
func (s *Suite) RunFig14b() error {
	sizes := s.Scale.Fig14bSizes
	largest := sizes[len(sizes)-1]
	base, err := gen.FoursquarePreset.Dataset(largest, s.Seed)
	if err != nil {
		return err
	}
	t := Table{Title: "Fig 14b run-time(ms) vs data size — foursquare-based", Columns: []string{"size"}}
	for _, a := range mainAlgorithms {
		t.Columns = append(t.Columns, a.String())
	}
	for _, size := range sizes {
		ds := base
		if size < largest {
			ds, err = gen.SampledDataset(base, size, s.Seed+int64(size))
			if err != nil {
				return err
			}
		}
		e, err := core.NewEngine(ds, EngineOptions(DefaultS, s.Seed))
		if err != nil {
			return err
		}
		users := QueryUsers(ds, s.Scale.NumQueries, s.Seed)
		row := []string{fmt.Sprintf("%d", size)}
		for _, a := range mainAlgorithms {
			m, err := runWorkload(e, a, users, core.Params{K: DefaultK, Alpha: DefaultAlpha})
			if err != nil {
				return err
			}
			m.X = float64(size)
			s.record(m)
			row = append(row, ms(m.Runtime))
		}
		t.AddRow(row...)
	}
	t.Fprint(s.Out)
	return nil
}
