package exp

import (
	"fmt"
	"io"

	"ssrq/internal/core"
	"ssrq/internal/dataset"
	"ssrq/internal/gen"
)

// Suite owns the datasets and engines for a full evaluation run and exposes
// one Run method per table/figure. Datasets and engines are built lazily and
// cached, so individual figures can run standalone.
type Suite struct {
	Scale Scale
	Seed  int64
	Out   io.Writer

	datasets map[string]*dataset.Dataset
	engines  map[string]*core.Engine
	// Measurements accumulates every data point the suite produced, for
	// programmatic inspection (EXPERIMENTS.md generation, -json, tests).
	Measurements []Measurement
	// curExp is the experiment currently executing; record stamps it into
	// every measurement so the JSON report can group points by experiment.
	curExp string
}

// NewSuite creates an evaluation suite writing human-readable tables to out.
func NewSuite(scale Scale, seed int64, out io.Writer) *Suite {
	return &Suite{
		Scale:    scale,
		Seed:     seed,
		Out:      out,
		datasets: make(map[string]*dataset.Dataset),
		engines:  make(map[string]*core.Engine),
	}
}

// Dataset returns the named paper-substitute dataset at suite scale.
func (s *Suite) Dataset(name string) (*dataset.Dataset, error) {
	if ds, ok := s.datasets[name]; ok {
		return ds, nil
	}
	var preset gen.Preset
	var n int
	switch name {
	case "gowalla":
		preset, n = gen.GowallaPreset, s.Scale.GowallaN
	case "foursquare":
		preset, n = gen.FoursquarePreset, s.Scale.FoursquareN
	case "twitter":
		preset, n = gen.TwitterPreset, s.Scale.TwitterN
	case "urban":
		// The literature-derived workload presets run at Gowalla scale.
		preset, n = gen.UrbanPreset, s.Scale.GowallaN
	case "homophily":
		preset, n = gen.HomophilyPreset, s.Scale.GowallaN
	default:
		return nil, fmt.Errorf("exp: unknown dataset %q", name)
	}
	ds, err := preset.Dataset(n, s.Seed)
	if err != nil {
		return nil, err
	}
	s.datasets[name] = ds
	return ds, nil
}

// Engine returns a cached single-index engine for the dataset at grid
// granularity s.
func (s *Suite) Engine(dsName string, gridS int) (*core.Engine, error) {
	key := fmt.Sprintf("%s/s=%d", dsName, gridS)
	if e, ok := s.engines[key]; ok {
		return e, nil
	}
	ds, err := s.Dataset(dsName)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEngine(ds, EngineOptions(gridS, s.Seed))
	if err != nil {
		return nil, err
	}
	s.engines[key] = e
	return e, nil
}

func (s *Suite) record(ms ...Measurement) {
	for i := range ms {
		if ms[i].Exp == "" {
			ms[i].Exp = s.curExp
		}
	}
	s.Measurements = append(s.Measurements, ms...)
}

// RunAll executes every experiment in paper order.
func (s *Suite) RunAll() error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"table2", s.RunTable2},
		{"fig7a", s.RunFig7a},
		{"fig7b", s.RunFig7b},
		{"fig8", s.RunFig8},
		{"fig9", s.RunFig9},
		{"fig10", s.RunFig10},
		{"fig11", s.RunFig11},
		{"fig12", s.RunFig12},
		{"fig13", s.RunFig13},
		{"fig14a", s.RunFig14a},
		{"fig14b", s.RunFig14b},
	}
	for _, step := range steps {
		s.curExp = step.name
		if err := step.fn(); err != nil {
			return fmt.Errorf("exp: %s: %w", step.name, err)
		}
	}
	return nil
}

// Run executes a single experiment by id ("table2", "fig7a", … "fig14b",
// "diag", "all").
func (s *Suite) Run(id string) error {
	s.curExp = id
	switch id {
	case "all":
		return s.RunAll()
	case "table2":
		return s.RunTable2()
	case "fig7a":
		return s.RunFig7a()
	case "fig7b":
		return s.RunFig7b()
	case "fig8":
		return s.RunFig8()
	case "fig9":
		return s.RunFig9()
	case "fig10":
		return s.RunFig10()
	case "fig11":
		return s.RunFig11()
	case "fig12":
		return s.RunFig12()
	case "fig13":
		return s.RunFig13()
	case "fig14a":
		return s.RunFig14a()
	case "fig14b":
		return s.RunFig14b()
	case "diag":
		return s.RunDiagnostics()
	default:
		return fmt.Errorf("exp: unknown experiment %q", id)
	}
}
