package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndTailPicker(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{20000, 99.9}, {10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 0}, {0, 0}} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The driver judges steadiness with Python's statistics.quantiles(n=4); the
// expected values below are that function's output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7}, 1, 10},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	if s, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, %v; want 1", s, ok)
	}
}

// fakeClock advances only when told to, so scheduling is checked exactly.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	service := []time.Duration{250 * time.Millisecond, 10 * time.Millisecond}
	do := func(i int, _ op) outcome {
		clk.Sleep(service[min(i, 1)])
		return outcome{ok: true}
	}
	got := runStream(clk, start, time.Second, 10, func() op { return op{Kind: opQuery} }, do)
	if len(got) != 10 {
		t.Fatalf("%d ops issued, want rate × duration = 10", len(got))
	}
	// Op 0 stalls for 250 ms. Ops 1 and 2 were due at 100 and 200 ms, are
	// sent late, and are charged the wait; op 3 is due at 300 ms and on time.
	want := []struct{ at, lag, lat float64 }{{0, 0, 250}, {0.1, 150, 160}, {0.2, 60, 70}, {0.3, 0, 10}}
	for i, w := range want {
		s := got[i]
		if math.Abs(s.at-w.at) > 1e-9 || math.Abs(s.lagMs-w.lag) > 1e-6 || math.Abs(s.latMs-w.lat) > 1e-6 {
			t.Errorf("op %d: due %.3fs lag %.3fms latency %.3fms; want %.3fs %.3fms %.3fms", i, s.at, s.lagMs, s.latMs, w.at, w.lag, w.lat)
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	do := func(int, op) outcome {
		clk.Sleep(300 * time.Millisecond)
		return outcome{ok: true}
	}
	got := runStream(clk, clk.now, time.Second, 0, func() op { return op{Kind: opQuery} }, do)
	// Sends at 0, 300, 600 and 900 ms; the next would be at 1200 ms.
	if len(got) != 4 {
		t.Fatalf("%d ops issued, want 4", len(got))
	}
	for i, s := range got {
		if math.Abs(s.latMs-300) > 1e-6 || s.lagMs != 0 {
			t.Errorf("op %d: latency %.3fms lag %.3fms; a closed loop times from the send", i, s.latMs, s.lagMs)
		}
	}
}

// opListJSON is the first n ops of every stream of a workload, as bytes.
func opListJSON(t *testing.T, s spec, seed int64, n int) []byte {
	t.Helper()
	w, err := newWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	var all [][]op
	for i, ss := range s.streams {
		g := newOpGen(w, ss, seed, i)
		ops := make([]op, n)
		for j := range ops {
			ops[j] = g.next()
		}
		all = append(all, ops)
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameOpList(t *testing.T) {
	for _, s := range specs {
		s = s.smoke()
		a, b, c := opListJSON(t, s, 7, 60), opListJSON(t, s, 7, 60), opListJSON(t, s, 8, 60)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different op lists", s.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", s.name)
		}
		// A longer list starts with the shorter one: a faster server sees
		// more of the same inputs, not different ones.
		long := opListJSON(t, s, 7, 90)
		var short, longer [][]op
		if json.Unmarshal(a, &short) != nil || json.Unmarshal(long, &longer) != nil {
			t.Fatal("op list does not round-trip")
		}
		for i := range short {
			x, _ := json.Marshal(short[i])
			y, _ := json.Marshal(longer[i][:len(short[i])])
			if !bytes.Equal(x, y) {
				t.Errorf("%s stream %d: 60 ops are not a prefix of 90", s.name, i)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "overlaps a", StartNs: 20, EndNs: 50},
		{ID: 4, Parent: 1, Name: "runs past the parent", StartNs: 90, EndNs: 120},
		{ID: 5, Parent: 2, Name: "grandchild", StartNs: 12, EndNs: 20},
		{ID: 6, Name: "childless", StartNs: 5, EndNs: 9},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the parent: 50 of its 100 ns.
	for id, want := range map[uint64]int64{1: 50, 2: 12, 3: 30, 4: 30, 5: 8, 6: 4} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// A nil recorder is tracing off: it accepts calls and keeps nothing.
	var off *recorder
	if id := off.record(0, 0, 0, "x", time.Now(), time.Now()); id != 0 || off.newID() != 0 || off.snapshot() != nil {
		t.Error("nil recorder recorded something")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Names are API: BENCHMARK.json and the command must declare exactly the
// same metrics, units and workloads.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []boundedMetric, emitted []metricDef, bounded bool) {
		want := make(map[string]string)
		for _, d := range emitted {
			want[d.Name] = d.Unit
		}
		for _, d := range declared {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s metric name %q is not made of letters, digits, _ . -", kind, d.Name)
			}
			unit, ok := want[d.Name]
			if !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but the command does not emit it", kind, d.Name)
				continue
			}
			if unit != d.Unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q in the command", kind, d.Name, d.Unit, unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.Name, d.Better)
			}
			if bounded && !(d.Bound > 0 && d.Bound <= 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
			delete(want, d.Name)
		}
		for name := range want {
			t.Errorf("%s metric %s is emitted by the command but missing from BENCHMARK.json", kind, name)
		}
	}
	check("end_to_end", bf.EndToEnd, e2eMetrics, true)
	check("per_layer", bf.PerLayer, layerMetrics, false)
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(specs))
	}
	for i, wl := range bf.Workloads {
		if i < len(specs) && wl.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command", i, wl.Name, specs[i].name)
		}
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.Name)
		}
	}
}

// smokeRun runs one workload end to end at smoke scale in both modes and
// holds the run to the contract: nothing failed, exactly the declared metrics
// came out, and shutting down left no goroutine behind.
func smokeRun(t *testing.T, workload string) (e2e, traced *Report) {
	t.Helper()
	before := runtime.NumGoroutine()
	out := t.TempDir()
	run := func(trace int, seconds float64, defs []metricDef) *Report {
		rep, err := runWorkload(runConfig{workload: workload, seed: 3, seconds: seconds, trace: trace,
			smoke: true, outDir: out, setups: 2, warm: 100 * time.Millisecond})
		if err != nil {
			t.Fatalf("%s trace %d: %v", workload, trace, err)
		}
		if rep.Failed != 0 || !rep.Correct || rep.Attempted < 1 {
			t.Fatalf("%s trace %d: %d of %d ops failed: %v", workload, trace, rep.Failed, rep.Attempted, rep.Failures)
		}
		var got, want []string
		for name := range rep.Metrics {
			got = append(got, name)
		}
		for _, d := range defs {
			want = append(want, d.Name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s trace %d emitted %v, declared %v", workload, trace, got, want)
		}
		var buf bytes.Buffer
		if err := rep.print(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
			t.Errorf("%s trace %d: last output line is not the four-key result object: %v", workload, trace, err)
		}
		return rep
	}
	e2e = run(0, 0.5, e2eMetrics)
	for name, m := range e2e.Metrics {
		if !(m.Value > 0) {
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", workload, name, m.Value)
		}
	}
	traced = run(1, 2, layerMetrics)
	if _, err := os.Stat(filepath.Join(out, "trace-"+workload+".json")); err != nil {
		t.Errorf("%s: no trace file: %v", workload, err)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(left) > 0 {
		t.Errorf("%s: temporary directories left behind: %v", workload, left)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		t.Errorf("%s: %d goroutines before, %d after shutdown\n%s", workload, before, after, buf[:runtime.Stack(buf, true)])
	}
	return e2e, traced
}

func positive(t *testing.T, rep *Report, names ...string) {
	t.Helper()
	for _, name := range names {
		if m, ok := rep.Metrics[name]; !ok || !(m.Value > 0) {
			t.Errorf("%s: %s = %v, want a positive value", rep.Workload, name, m.Value)
		}
	}
}

func TestSmokeReadLarge(t *testing.T) {
	_, traced := smokeRun(t, "read_large")
	positive(t, traced, "client.query_p50_ms", "core.ais.query_p50_ms", "core.brute.query_p50_ms",
		"httpapi.query_handler_p50_ms", "graph.fwd_ms_per_q", "landmark.lower_bound_ns", "pqueue.push_pop_ns")
	if v := traced.Metrics["shard.fanout_per_q"].Value; v != 0 {
		t.Errorf("read_large leaves the shard layer idle, yet shard.fanout_per_q = %v", v)
	}
}

func TestSmokeReadSharded(t *testing.T) {
	_, traced := smokeRun(t, "read_sharded")
	positive(t, traced, "shard.fanout_per_q", "shard.merge_us", "shard.overhead_ratio",
		"aggindex.label_cell_prunes_per_q", "loadgen.sched_lag_p99_ms")
}

func TestSmokeMixedDurable(t *testing.T) {
	_, traced := smokeRun(t, "mixed_durable")
	positive(t, traced, "client.query_p50_ms", "client.move_ack_p50_ms", "client.edge_ack_p50_ms",
		"wal.checkpoints", "wal.recover_s", "wal.append_sync_us_per_batch", "oplog.bytes_per_rec",
		"core.apply_us_per_move", "aggindex.edge_apply_us_per_op", "follower.catchup_ops_per_s")
}

func TestSmokeIngestRecover(t *testing.T) {
	e2e, traced := smokeRun(t, "ingest_recover")
	positive(t, traced, "client.moves_per_s", "client.sub_notify_p50_ms", "wal.recover_s",
		"sub.evals_per_round", "sub.sync_ms", "follower.catchup_ops_per_s")
	if d := e2e.Distributions["sub_notify"]; d.Samples == 0 {
		t.Error("ingest_recover: the SSE subscriber saw no delta for its own moves")
	}
	if v := traced.Metrics["follower.final_lag_ops"].Value; v != 0 {
		t.Errorf("follower stopped %v ops behind the journal", v)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bf := &benchmarkFile{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "w"}},
		EndToEnd: []boundedMetric{
			{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "noisy_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		},
	}
	set := func(lat, rate, noisy []float64) []Report {
		var rs []Report
		for i := range lat {
			rs = append(rs, Report{Workload: "w", Metrics: map[string]Metric{
				"lat_ms": {Value: lat[i]}, "rate": {Value: rate[i]}, "noisy_ms": {Value: noisy[i]}}})
		}
		return rs
	}
	steady := []float64{100, 101, 99, 100}
	noisy := []float64{100, 160, 60, 100}
	old := set(steady, steady, noisy)
	var buf bytes.Buffer
	if compare(&buf, bf, old, set(steady, steady, noisy)) {
		t.Errorf("identical sets compared as a regression:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "unresolved") || !strings.Contains(buf.String(), "unchanged") {
		t.Errorf("want the steady metrics unchanged and the noisy one unresolved:\n%s", buf.String())
	}
	slower := []float64{120, 121, 119, 120}
	buf.Reset()
	if !compare(&buf, bf, old, set(slower, steady, noisy)) {
		t.Errorf("a 20%% slower latency under a 10%% bound is a regression:\n%s", buf.String())
	}
	buf.Reset()
	if compare(&buf, bf, old, set(steady, slower, noisy)) {
		t.Errorf("a 20%% higher rate is better, not a regression:\n%s", buf.String())
	}
	buf.Reset()
	if !compare(&buf, bf, set(steady, slower, noisy), old) {
		t.Errorf("a rate falling by a sixth under a 10%% bound is a regression:\n%s", buf.String())
	}
}
