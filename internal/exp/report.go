package exp

import (
	"encoding/json"
	"io"
	"time"
)

// Report is the machine-readable form of a suite run (ssrq-bench -json):
// run metadata plus every recorded measurement. Durations are emitted in
// microseconds so downstream tooling can compare runs without parsing
// duration strings.
type Report struct {
	Exp       string        `json:"exp"`
	Scale     string        `json:"scale"`
	Seed      int64         `json:"seed"`
	Elapsed   float64       `json:"elapsed_sec"`
	Generated time.Time     `json:"generated"`
	Points    []ReportPoint `json:"points"`
}

// ReportPoint is one Measurement, flattened for JSON.
type ReportPoint struct {
	Exp       string  `json:"exp"`
	Dataset   string  `json:"dataset"`
	Algo      string  `json:"algo"`
	X         float64 `json:"x"`
	RuntimeUS float64 `json:"runtime_us"`
	PopRatio  float64 `json:"pop_ratio,omitempty"`
	Queries   int     `json:"queries"`
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Report assembles the machine-readable view of everything the suite
// measured so far.
func (s *Suite) Report(expID string, elapsed time.Duration) Report {
	r := Report{
		Exp:       expID,
		Scale:     s.Scale.Name,
		Seed:      s.Seed,
		Elapsed:   elapsed.Seconds(),
		Generated: time.Now().UTC().Truncate(time.Second),
		Points:    make([]ReportPoint, 0, len(s.Measurements)),
	}
	for _, m := range s.Measurements {
		r.Points = append(r.Points, ReportPoint{
			Exp:       m.Exp,
			Dataset:   m.Dataset,
			Algo:      m.Algo.String(),
			X:         m.X,
			RuntimeUS: us(m.Runtime),
			PopRatio:  m.PopRatio,
			Queries:   m.Queries,
		})
	}
	return r
}

// WriteJSON serializes the report, indented, with a trailing newline.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
