package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ssrq/internal/core"
)

// RunFilter evaluates attribute-filtered SSRQ on the clustered urban
// workload, where per-city labels align with the spatial clusters and the
// aggregate label masks can prune whole index subtrees. The cell is
// self-checking twice over: every filtered result is compared entry by entry
// against the brute-force oracle under the same filter, and the run fails
// outright if the label index produced zero cell-mask prunes — either
// failure means the filtered query path is broken, not slow.
func (s *Suite) RunFilter() error {
	e, err := s.Engine("urban", DefaultS, false)
	if err != nil {
		return err
	}
	ds, err := s.Dataset("urban")
	if err != nil {
		return err
	}
	if ds.Labels == nil {
		return fmt.Errorf("exp: filter: urban dataset carries no labels")
	}
	users := QueryUsers(ds, s.Scale.NumQueries, s.Seed)
	if len(users) == 0 {
		return fmt.Errorf("exp: filter: no located query users")
	}
	rng := rand.New(rand.NewSource(s.Seed + 77))

	algos := []core.Algorithm{core.AIS, core.TSA, core.SFA}
	type acc struct {
		total                time.Duration
		prunes, skips, fofUp int
		pop                  float64
	}
	cells := make(map[core.Algorithm]*acc, len(algos))
	for _, a := range algos {
		cells[a] = &acc{}
	}
	n := ds.NumUsers()
	checked := 0

	for _, q := range users {
		// Filter on the query user's own city, half the time widened by a
		// second random city — the realistic "places my community frequents"
		// shape: selective, spatially clustered, never empty.
		filter := ds.Labels[q]
		if filter == 0 {
			filter = 1 << uint(rng.Intn(8))
		}
		if rng.Intn(2) == 0 {
			filter |= 1 << uint(rng.Intn(8))
		}
		prm := core.Params{K: DefaultK, Alpha: DefaultAlpha, Filter: filter}
		want, err := e.Query(core.BruteForce, q, prm)
		if err != nil {
			return fmt.Errorf("exp: filter: oracle on user %d: %w", q, err)
		}
		for _, algo := range algos {
			start := time.Now()
			got, err := e.Query(algo, q, prm)
			if err != nil {
				return fmt.Errorf("exp: filter: %v on user %d: %w", algo, q, err)
			}
			c := cells[algo]
			c.total += time.Since(start)
			c.prunes += got.Stats.LabelCellPrunes
			c.skips += got.Stats.LabelSkips
			c.fofUp += got.Stats.FoFTightened
			c.pop += got.Stats.PopRatio(n)
			if len(got.Entries) != len(want.Entries) {
				return fmt.Errorf("exp: filter: %v q=%d filter=%#x: %d entries, oracle has %d",
					algo, q, filter, len(got.Entries), len(want.Entries))
			}
			for i := range got.Entries {
				g, w := got.Entries[i], want.Entries[i]
				if math.Abs(g.F-w.F) > 1e-9 || (g.ID != w.ID && math.Abs(g.F-w.F) > 1e-12) {
					return fmt.Errorf("exp: filter: %v q=%d filter=%#x rank %d: (id=%d f=%v), oracle (id=%d f=%v)",
						algo, q, filter, i, g.ID, g.F, w.ID, w.F)
				}
			}
		}
		checked++
	}

	totalPrunes := 0
	for _, c := range cells {
		totalPrunes += c.prunes
	}
	if totalPrunes == 0 {
		return fmt.Errorf("exp: filter: zero cell-mask prunes across %d clustered queries — the label index is not pruning", checked)
	}

	tbl := &Table{
		Title: fmt.Sprintf("Filtered SSRQ — urban workload, k=%d, α=%.1f, %d queries (oracle-checked)",
			DefaultK, DefaultAlpha, checked),
		Columns: []string{"algo", "avg (ms)", "pop ratio", "cell prunes/q", "label skips/q", "fof tightened/q"},
	}
	nq := float64(checked)
	for _, algo := range algos {
		c := cells[algo]
		tbl.AddRow(fmt.Sprint(algo),
			ms(c.total/time.Duration(checked)), ratio(c.pop/nq),
			f2(float64(c.prunes)/nq), f2(float64(c.skips)/nq), f2(float64(c.fofUp)/nq))
		s.record(Measurement{
			Dataset: ds.Name, Algo: algo,
			Runtime:  c.total / time.Duration(checked),
			PopRatio: c.pop / nq, Queries: checked,
			Extra: map[string]float64{
				"label_cell_prunes_per_q": float64(c.prunes) / nq,
				"label_skips_per_q":       float64(c.skips) / nq,
				"fof_tightened_per_q":     float64(c.fofUp) / nq,
				"oracle_checked":          nq,
			},
		})
	}
	tbl.Fprint(s.Out)
	return nil
}
