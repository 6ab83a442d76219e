package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef declares one metric name. The names are API: BENCHMARK.json lists
// exactly these, and later changes are measured by them.
type metricDef struct {
	Name, Unit string
	// Estimated marks a unit cost multiplied by a count rather than a
	// measured duration.
	Estimated bool
}

// e2eMetrics are what a user of the server sees; every workload reports all
// of them. "op" is the workload's primary request: GET /query on the read
// and mixed workloads, POST /moves on ingest_recover.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "heap_mb", Unit: "MB"},
	{Name: "op_p50_ms", Unit: "ms"},
	{Name: "ops_per_s", Unit: "1/s"},
}

// layerMetrics are per-layer numbers of the traced run, "<module>.<metric>".
// A layer the workload leaves idle reports 0.
var layerMetrics = []metricDef{
	{Name: "client.query_p50_ms", Unit: "ms"},
	{Name: "client.query_p99_ms", Unit: "ms"},
	{Name: "client.query_per_s", Unit: "1/s"},
	{Name: "client.move_ack_p50_ms", Unit: "ms"},
	{Name: "client.move_ack_p99_ms", Unit: "ms"},
	{Name: "client.edge_ack_p50_ms", Unit: "ms"},
	{Name: "client.moves_per_s", Unit: "1/s"},
	{Name: "client.sub_notify_p50_ms", Unit: "ms"},

	{Name: "loadgen.sched_lag_p99_ms", Unit: "ms"},
	{Name: "loadgen.net_overhead_p50_ms", Unit: "ms"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%"},

	{Name: "httpapi.query_handler_p50_ms", Unit: "ms"},
	{Name: "httpapi.query_codec_us", Unit: "us"},
	{Name: "httpapi.query_resp_bytes", Unit: "B"},
	{Name: "httpapi.moves_handler_p50_ms", Unit: "ms"},
	{Name: "httpapi.moves_codec_us_per_move", Unit: "us"},
	{Name: "httpapi.non2xx", Unit: "count"},

	{Name: "core.ais.query_p50_ms", Unit: "ms"},
	{Name: "core.tsa.query_p50_ms", Unit: "ms"},
	{Name: "core.sfa.query_p50_ms", Unit: "ms"},
	{Name: "core.spa.query_p50_ms", Unit: "ms"},
	{Name: "core.brute.query_p50_ms", Unit: "ms"},
	{Name: "core.ais.pop_ratio", Unit: "ratio"},
	{Name: "core.tsa.pop_ratio", Unit: "ratio"},
	{Name: "core.sfa.pop_ratio", Unit: "ratio"},
	{Name: "core.ais.social_pops_per_q", Unit: "count"},
	{Name: "core.ais.reverse_pops_per_q", Unit: "count"},
	{Name: "core.ais.index_user_pops_per_q", Unit: "count"},
	{Name: "core.ais.index_cell_pops_per_q", Unit: "count"},
	{Name: "core.ais.graphdist_calls_per_q", Unit: "count"},
	{Name: "core.ais.reinserts_per_q", Unit: "count"},
	{Name: "core.ais.useful_eval_ratio", Unit: "ratio"},
	{Name: "core.ais.allocs_per_q", Unit: "count"},
	{Name: "core.ais.self_ms", Unit: "ms"},
	{Name: "core.build_s", Unit: "s"},
	{Name: "core.apply_us_per_move", Unit: "us"},
	{Name: "core.epoch_publish_us", Unit: "us"},
	{Name: "core.update_coalesced_ratio", Unit: "ratio"},
	{Name: "core.epochs", Unit: "count"},

	{Name: "spatial.nn_ns_per_pop", Unit: "ns"},
	{Name: "spatial.nn_ms_per_q", Unit: "ms"},

	{Name: "graph.dijkstra_ns_per_pop", Unit: "ns"},
	{Name: "graph.fwd_ms_per_q", Unit: "ms"},
	{Name: "graph.p2p_us", Unit: "us"},
	{Name: "graph.overlay_setedge_ns", Unit: "ns"},

	{Name: "landmark.lower_bound_ns", Unit: "ns"},
	{Name: "landmark.bound_ms_per_q", Unit: "ms", Estimated: true},
	{Name: "landmark.slack_ratio", Unit: "ratio"},
	{Name: "landmark.select_s", Unit: "s"},
	{Name: "landmark.repairs", Unit: "count"},
	{Name: "landmark.disables", Unit: "count"},
	{Name: "landmark.rebuilds", Unit: "count"},
	{Name: "landmark.forced_installs", Unit: "count"},

	{Name: "fof.arm_us", Unit: "us"},
	{Name: "fof.tightened_per_q", Unit: "count"},

	{Name: "aggindex.cell_bounds_us_per_q", Unit: "us", Estimated: true},
	{Name: "aggindex.label_cell_prunes_per_q", Unit: "count"},
	{Name: "aggindex.edge_apply_us_per_op", Unit: "us"},

	{Name: "pqueue.push_pop_ns", Unit: "ns"},
	{Name: "pqueue.heap_ms_per_q", Unit: "ms", Estimated: true},

	{Name: "shard.fanout_per_q", Unit: "count"},
	{Name: "shard.pruned_ratio", Unit: "ratio"},
	{Name: "shard.merge_us", Unit: "us"},
	{Name: "shard.overhead_ratio", Unit: "ratio"},
	{Name: "shard.route_us_per_move", Unit: "us"},
	{Name: "shard.imbalance", Unit: "ratio"},

	{Name: "oplog.encode_ns_per_rec", Unit: "ns"},
	{Name: "oplog.decode_ns_per_rec", Unit: "ns"},
	{Name: "oplog.bytes_per_rec", Unit: "B"},

	{Name: "wal.append_sync_us_per_batch", Unit: "us"},
	{Name: "wal.append_nosync_us_per_batch", Unit: "us"},
	{Name: "wal.fsync_share", Unit: "ratio"},
	{Name: "wal.bytes_per_op", Unit: "B"},
	{Name: "wal.checkpoints", Unit: "count"},
	{Name: "wal.checkpoint_ms", Unit: "ms"},
	{Name: "wal.segments", Unit: "count"},
	{Name: "wal.append_errors", Unit: "count"},
	{Name: "wal.replay_ops_per_s", Unit: "1/s"},
	{Name: "wal.checkpoint_load_ops_per_s", Unit: "1/s"},
	{Name: "wal.recover_s", Unit: "s"},

	{Name: "sub.skip_ratio", Unit: "ratio"},
	{Name: "sub.evals_per_round", Unit: "count"},
	{Name: "sub.sync_ms", Unit: "ms"},
	{Name: "sub.notified", Unit: "count"},

	{Name: "follower.catchup_ops_per_s", Unit: "1/s"},
	{Name: "follower.final_lag_ops", Unit: "count"},

	{Name: "gen.synth_s", Unit: "s"},
}

// Metric is one reported value.
type Metric struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	Samples   int     `json:"samples,omitempty"`
	Estimated bool    `json:"estimated,omitempty"`
}

// Distribution summarizes one latency population: its median and the highest
// tail percentile that still has ten samples beyond it.
type Distribution struct {
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct,omitempty"`
	TailMs  float64 `json:"tail_ms,omitempty"`
}

func distribution(lat []float64) Distribution {
	d := Distribution{Samples: len(lat), P50Ms: median(lat)}
	if p := pickTail(len(lat)); p > 0 {
		d.TailPct, d.TailMs = p, percentile(lat, p)
	}
	return d
}

// Machine is where a report was measured.
type Machine struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

func machine() Machine {
	m := Machine{CPU: "unknown", Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: "unknown"}
	if sha := os.Getenv("BENCH_GIT_SHA"); sha != "" {
		m.GitSHA = sha
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return m
}

// Report is one run of one workload: the single schema every run writes.
type Report struct {
	Schema   int     `json:"schema"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Smoke    bool    `json:"smoke,omitempty"`
	Machine  Machine `json:"machine"`
	// Config echoes every setting that shapes the numbers, so the two sides
	// of a comparison can be shown to match.
	Config        map[string]any          `json:"config"`
	OpCounts      map[string]int          `json:"op_counts"`
	Attempted     int                     `json:"attempted"`
	Failed        int                     `json:"failed"`
	Correct       bool                    `json:"correct"`
	Failures      []string                `json:"failures,omitempty"`
	Metrics       map[string]Metric       `json:"metrics"`
	Distributions map[string]Distribution `json:"distributions,omitempty"`
}

// metricSet collects the metrics of one run against the declared names.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]Metric
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: make(map[string]Metric, len(defs))}
	for _, d := range defs {
		ms.defs[d.Name] = d
	}
	return ms
}

// set records a value under a declared name; an undeclared name is a bug in
// the bench, since names are fixed by BENCHMARK.json.
func (ms *metricSet) set(name string, v float64, samples int) {
	d, ok := ms.defs[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	ms.vals[name] = Metric{Value: v, Unit: d.Unit, Samples: samples, Estimated: d.Estimated}
}

// fillIdle reports 0 for every declared metric the workload did not touch.
func (ms *metricSet) fillIdle() {
	for name, d := range ms.defs {
		if _, ok := ms.vals[name]; !ok {
			ms.vals[name] = Metric{Unit: d.Unit, Estimated: d.Estimated}
		}
	}
}

// missing lists declared metrics that have no value.
func (ms *metricSet) missing() []string {
	var out []string
	for name := range ms.defs {
		if _, ok := ms.vals[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// resultLine is the last line of standard output, the contract with the
// acceptance driver.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name with its unit, then the result line.
func (r *Report) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d trace %d: %d attempted, %d failed\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]resultValue, len(names))}
	for _, name := range names {
		m := r.Metrics[name]
		note := ""
		if m.Estimated {
			note = "  (estimated)"
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s%s\n", name, m.Value, m.Unit, note)
		line.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func (r *Report) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadReports reads a set of runs: a directory of report files, one report
// file, or one file holding a JSON array of reports (bench/results/*.json).
func loadReports(path string) ([]Report, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var files []string
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "report-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	} else {
		files = []string{path}
	}
	var out []Report
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var many []Report
		if json.Unmarshal(b, &many) == nil {
			out = append(out, many...)
			continue
		}
		var one Report
		if err := json.Unmarshal(b, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, one)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return out, nil
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// compare prints, per workload, every metric's median on both sides and the
// change, judged against the bounds BENCHMARK.json fixes. A pair whose own
// run-to-run spread exceeds the bound is "unresolved", never "unchanged".
// It reports whether any end-to-end metric regressed.
func compare(w io.Writer, bf *benchmarkFile, old, cur []Report) (regressed bool) {
	type key struct {
		workload, metric string
		trace            int
	}
	collect := func(rs []Report) map[key][]float64 {
		m := make(map[key][]float64)
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name, r.Trace}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	a, b := collect(old), collect(cur)
	row := func(workload string, trace int, d boundedMetric) {
		k := key{workload, d.Name, trace}
		av, bv := a[k], b[k]
		if len(av) == 0 || len(bv) == 0 {
			return
		}
		ma, mb := exactMedian(av), exactMedian(bv)
		// worse > 0 means cur is worse than old, as a share of old.
		var worse float64
		if ma != 0 {
			worse = (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
		}
		verdict := ""
		if d.Bound > 0 {
			sa, oka := spread(av)
			sb, okb := spread(bv)
			switch {
			case (oka && sa > d.Bound) || (okb && sb > d.Bound):
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% > bound %.0f%%)", 100*sa, 100*sb, 100*d.Bound)
			case worse > d.Bound:
				verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*d.Bound)
				regressed = true
			case worse < -d.Bound:
				verdict = "better"
			default:
				verdict = "unchanged"
			}
		}
		fmt.Fprintf(w, "  %-36s %14.6g -> %14.6g %-6s %+7.1f%% worse  n=%d/%d  %s\n",
			d.Name, ma, mb, d.Unit, 100*worse, len(av), len(bv), verdict)
	}
	for _, wl := range bf.Workloads {
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, d := range bf.EndToEnd {
			row(wl.Name, 0, d)
		}
		for _, d := range bf.PerLayer {
			row(wl.Name, 1, d)
		}
	}
	return regressed
}
