package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"ssrq/internal/core"
	"ssrq/internal/graph"
)

// Measurement is one averaged data point of a figure: an algorithm at one
// swept parameter value.
type Measurement struct {
	// Exp names the experiment that produced the point ("fig8", "fig9",
	// …); record stamps it from the currently-running experiment.
	Exp      string
	Dataset  string
	Algo     core.Algorithm
	X        float64 // swept parameter (k, α, s, t, size…)
	Runtime  time.Duration
	PopRatio float64
	Queries  int
}

// runWorkload runs the query set through one algorithm and averages runtime
// and pop ratio.
func runWorkload(e *core.Engine, algo core.Algorithm, users []graph.VertexID, prm core.Params) (Measurement, error) {
	var total time.Duration
	var popSum float64
	n := e.Dataset().NumUsers()
	for _, q := range users {
		start := time.Now()
		res, err := e.Query(algo, q, prm)
		if err != nil {
			return Measurement{}, fmt.Errorf("%v on user %d: %w", algo, q, err)
		}
		total += time.Since(start)
		popSum += res.Stats.PopRatio(n)
	}
	if len(users) == 0 {
		return Measurement{}, fmt.Errorf("exp: empty query workload")
	}
	return Measurement{
		Dataset:  e.Dataset().Name,
		Algo:     algo,
		Runtime:  total / time.Duration(len(users)),
		PopRatio: popSum / float64(len(users)),
		Queries:  len(users),
	}, nil
}

// Table is a printable result grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	var b strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	b.Reset()
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	for _, row := range t.Rows {
		b.Reset()
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
func ratio(r float64) string    { return fmt.Sprintf("%.4f", r) }
func f2(x float64) string       { return fmt.Sprintf("%.2f", x) }
