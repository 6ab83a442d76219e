package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ssrq/internal/core"
)

// runConfig is one invocation: one workload, one seed, one mode.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	outDir   string
	// setups is how many times the untraced run builds the server; setup_s is
	// their median. The traced run builds each of its two servers once.
	setups int
	warm   time.Duration
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC() // the first cycle can leave finalizer-held garbage behind
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runWorkload executes one run and returns its report; a non-nil error means
// the run could not be completed at all (failed ops are in the report).
func runWorkload(cfg runConfig) (*Report, error) {
	s, err := findSpec(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.smoke {
		s = s.smoke()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	// WAL directories and probe logs live under one temp root inside the
	// output directory, removed whether the run succeeds or not.
	tmpRoot, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpRoot)

	rep := &Report{
		Schema: 1, Workload: s.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke,
		Machine: machine(), Config: echoConfig(s, cfg),
		OpCounts: map[string]int{}, Distributions: map[string]Distribution{},
	}
	log := &failLog{}
	var m *metricSet
	if cfg.trace == 0 {
		m, err = runE2E(s, cfg, tmpRoot, log, rep)
	} else {
		m, err = runTraced(s, cfg, tmpRoot, log, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Metrics = m.vals
	rep.Attempted, rep.Failed, rep.Failures = log.attempted, log.failed, log.reasons
	rep.Correct = log.failed == 0
	return rep, nil
}

// echoConfig lists every setting that shapes the numbers.
func echoConfig(s spec, cfg runConfig) map[string]any {
	streams := make([]map[string]any, len(s.streams))
	for i, ss := range s.streams {
		st := map[string]any{"loop": "closed", "primary": ss.primary}
		if ss.rate > 0 {
			st["loop"], st["rate_per_s"], st["phase_s"] = "open", ss.rate, s.phase(i).Seconds()
		}
		if ss.query {
			st["request"], st["filtered_every_other"] = "GET /query", ss.filtered
		} else {
			st["request"] = "POST /moves flush:true"
			st["moves_per_request"], st["edges_per_request"], st["edges_every"] = ss.moves, ss.edges, ss.edgeEvery
			st["sse_subscriber_moved_every"] = ss.subEvery
		}
		streams[i] = st
	}
	c := map[string]any{
		"preset": s.preset, "n": s.n, "dataset_seed": datasetSeed, "shards": s.shards,
		"k": queryK, "alpha": queryAlpha, "algo": "AIS (server default)", "ch": false,
		"wal": s.wal, "connections": len(s.streams), "streams": streams,
		"standing_subscriptions": s.standingSubs,
		"warmup_s":               cfg.warm.Seconds(), "client_timeout_s": clientTimeout.Seconds(),
		"setups": cfg.setups,
	}
	if s.wal {
		c["fsync"], c["checkpoint_every_ops"] = "batch", s.ckptEvery
	}
	return c
}

// describe fills the report's latency distributions and op counts from the
// pass whose numbers the report quotes.
func describe(p *pass, rep *Report) {
	for k := opKind(0); k < numOpKinds; k++ {
		lat, _ := p.timed(k, anyStream)
		if len(lat) > 0 {
			rep.Distributions[opKindName[k]] = distribution(lat)
			rep.OpCounts[opKindName[k]] = len(lat)
		}
	}
	if len(p.notifyMs) > 0 {
		rep.Distributions["sub_notify"] = distribution(p.notifyMs)
	}
}

// runE2E is the untraced run: nothing of the bench sits between the socket
// and the program, and the end-to-end metrics come out.
func runE2E(s spec, cfg runConfig, tmpRoot string, log *failLog, rep *Report) (*metricSet, error) {
	m := newMetricSet(e2eMetrics)
	var setup []float64
	var sv *server
	for i := 0; i < cfg.setups; i++ {
		if sv != nil {
			sv.stop()
		}
		// Every build starts from a collected heap, so none is timed with the
		// previous one's garbage still to be swept.
		runtime.GC()
		var err error
		if sv, err = startServer(s, tmpRoot, nil); err != nil {
			return nil, err
		}
		setup = append(setup, sv.setupS)
	}
	m.set("setup_s", median(setup), len(setup))
	// Measured before the bench builds its own copy of the dataset for the
	// op generators, so only the server's structures are live.
	m.set("heap_mb", heapMB(), 1)

	w, err := newWorld(s)
	if err != nil {
		sv.stop()
		return nil, err
	}
	p := newPass(s, sv, w, cfg.seed, nil, cfg.warm, cfg.window(), log)
	if err := p.run(); err != nil {
		sv.stop()
		return nil, err
	}
	if err := settle(p, w, cfg.seed, tmpRoot, nil); err != nil {
		return nil, err
	}
	describe(p, rep)
	lat, _ := p.timed(s.primaryKind(), primaryStream)
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no primary op completed in the window", s.name)
	}
	m.set("op_p50_ms", median(lat), len(lat))
	m.set("ops_per_s", p.perSecond(s.primaryKind(), primaryStream), len(lat))
	if miss := m.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("%s: end-to-end metrics not measured: %v", s.name, miss)
	}
	return m, nil
}

// settle checks the pass's answers and shuts its server down; a durable
// server is then restarted from its WAL and checked against what its clients
// were told. With m non-nil (the traced run) the probes that need the live
// server, the restart or the directory it leaves behind run at their places
// in that sequence.
func settle(p *pass, w *world, seed int64, tmpRoot string, m *metricSet) error {
	sv := p.sv
	if p.spec.readOnly() {
		verifyChecks(sv.eng, p.checks, p.log)
	}
	if m != nil {
		probeMovesCodec(p, m)
		probeSubSync(p, m)
	}
	var before []check
	if !p.spec.readOnly() {
		before = verifyQuiescent(sv, w, p.acked, seed, p.log)
	}
	ls := readLive(sv.eng)
	if m != nil {
		reportLive(p.spec, ls, m)
	}
	sv.stop()
	if !p.spec.wal {
		return nil
	}
	if m != nil {
		if err := probeReplay(w, sv.walDir, m); err != nil {
			return fmt.Errorf("replay probe: %w", err)
		}
	}
	var err error
	recoverTime := timeIt(func() { err = sv.openEngine() })
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	verifyRecovered(sv.eng, p.acked, before, p.log)
	d := timeIt(func() { err = sv.eng.Checkpoint() })
	if err == nil {
		err = verifyEdges(sv.eng, w, p.ackedW, p.log)
	}
	if err != nil {
		sv.eng.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if m != nil {
		m.set("wal.recover_s", recoverTime.Seconds(), 1)
		m.set("wal.checkpoint_ms", ms(d), 1)
	}
	sv.eng.Close()
	if m != nil {
		if err := probeFollower(sv, m); err != nil {
			return fmt.Errorf("follower probe: %w", err)
		}
	}
	return nil
}

// runTraced is the traced run: half the window untraced on one server, half
// traced on a second server built from the same inputs and fed the same ops,
// then the per-layer probes on a twin engine. The difference between the two
// halves is the tracing overhead.
func runTraced(s spec, cfg runConfig, tmpRoot string, log *failLog, rep *Report) (*metricSet, error) {
	m := newMetricSet(layerMetrics)
	var w *world
	var err error
	m.set("gen.synth_s", timeIt(func() { w, err = newWorld(s) }).Seconds(), 1)
	if err != nil {
		return nil, err
	}
	half := cfg.window() / 2

	svA, err := startServer(s, tmpRoot, nil)
	if err != nil {
		return nil, err
	}
	a := newPass(s, svA, w, cfg.seed, nil, cfg.warm, half, log)
	err = a.run()
	svA.stop()
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	svB, err := startServer(s, tmpRoot, rec)
	if err != nil {
		return nil, err
	}
	b := newPass(s, svB, w, cfg.seed, rec, cfg.warm, half, log)
	if err := b.run(); err != nil {
		svB.stop()
		return nil, err
	}
	if err := settle(b, w, cfg.seed, tmpRoot, m); err != nil {
		return nil, err
	}
	describe(a, rep)
	clientMetrics(a, b, m)

	var twin *core.Engine
	m.set("core.build_s", timeIt(func() { twin, err = core.NewEngine(w.ds, twinOptions()) }).Seconds(), 1)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	units := probeUnits(twin, m)
	if err := probeLandmarkSelect(w, twin, m); err != nil {
		return nil, err
	}
	aisSpans := probeQueries(b, w, twin, units, rec, m)
	if len(aisSpans) > 0 {
		if err := probeQueryCodec(s, m); err != nil {
			return nil, fmt.Errorf("query codec probe: %w", err)
		}
	}
	if s.shards > 1 {
		if err := probeShard(b, w, cfg.seed, m.vals["core.ais.query_p50_ms"].Value, m); err != nil {
			return nil, fmt.Errorf("shard probe: %w", err)
		}
	}
	if !s.readOnly() {
		probeUpdates(b, w, twin, rec, m)
	}
	if s.wal {
		recs := sampledRecords(b, w)
		if err := probeOplog(recs, m); err != nil {
			return nil, err
		}
		if err := probeWALAppend(recs, tmpRoot, m); err != nil {
			return nil, fmt.Errorf("wal append probe: %w", err)
		}
	}
	spans := rec.snapshot()
	spanMetrics(s, spans, aisSpans, m)
	m.fillIdle()
	return m, writeTrace(filepath.Join(cfg.outDir, "trace-"+s.name+".json"),
		traceFile{Workload: s.name, Seed: cfg.seed, Spans: spans})
}

// clientMetrics are the numbers a client sees that are not the workload's
// primary op, from the untraced pass a, plus what comparing it with the
// traced pass b shows about the bench itself.
func clientMetrics(a, b *pass, m *metricSet) {
	if lat, _ := a.timed(opQuery, anyStream); len(lat) > 0 {
		m.set("client.query_p50_ms", median(lat), len(lat))
		m.set("client.query_p99_ms", percentile(lat, 99), len(lat))
		m.set("client.query_per_s", a.perSecond(opQuery, anyStream), len(lat))
	}
	if lat, _ := a.timed(opMoves, anyStream); len(lat) > 0 {
		m.set("client.move_ack_p50_ms", median(lat), len(lat))
		m.set("client.move_ack_p99_ms", percentile(lat, 99), len(lat))
		for _, ss := range a.spec.streams {
			if ss.moves > 0 {
				m.set("client.moves_per_s", a.perSecond(opMoves, anyStream)*float64(ss.moves), len(lat))
			}
		}
	}
	if lat, _ := a.timed(opEdges, anyStream); len(lat) > 0 {
		m.set("client.edge_ack_p50_ms", median(lat), len(lat))
	}
	if len(a.notifyMs) > 0 {
		m.set("client.sub_notify_p50_ms", median(a.notifyMs), len(a.notifyMs))
	}
	var lag []float64
	for k := opKind(0); k < numOpKinds; k++ {
		_, l := a.timed(k, func(ss streamSpec) bool { return ss.rate > 0 })
		lag = append(lag, l...)
	}
	if len(lag) > 0 {
		m.set("loadgen.sched_lag_p99_ms", percentile(lag, 99), len(lag))
	}
	kind := a.spec.primaryKind()
	off, _ := a.timed(kind, primaryStream)
	on, _ := b.timed(kind, primaryStream)
	if len(off) > 0 && len(on) > 0 {
		m.set("loadgen.trace_overhead_pct", 100*(median(on)/median(off)-1), len(on))
	}
	m.set("httpapi.non2xx", float64(a.non2xx.Load()+b.non2xx.Load()), 0)
	if len(b.respBytes) > 0 {
		m.set("httpapi.query_resp_bytes", mean(b.respBytes), len(b.respBytes))
	}
}

// spanMetrics reads the layer numbers that exist only as spans: handler
// times, what the socket and the client add on top of the handler, and the
// part of an AIS search no replayed layer call accounts for.
func spanMetrics(s spec, spans []span, aisSpans []uint64, m *metricSet) {
	handlers := handlerSpans(spans)
	var qh, mh, net []float64
	for _, sp := range spans {
		switch sp.Name {
		case "httpapi/query":
			qh = append(qh, sp.durMs())
		case "httpapi/moves":
			mh = append(mh, sp.durMs())
		case "client." + opKindName[s.primaryKind()]:
			if h, ok := handlers[sp.Req]; ok {
				net = append(net, sp.durMs()-h.durMs())
			}
		}
	}
	if len(qh) > 0 {
		m.set("httpapi.query_handler_p50_ms", median(qh), len(qh))
	}
	if len(mh) > 0 {
		m.set("httpapi.moves_handler_p50_ms", median(mh), len(mh))
	}
	if len(net) > 0 {
		m.set("loadgen.net_overhead_p50_ms", median(net), len(net))
	}
	if len(aisSpans) > 0 {
		self := selfTimes(spans)
		var selfMs []float64
		for _, id := range aisSpans {
			selfMs = append(selfMs, float64(self[id])/1e6)
		}
		m.set("core.ais.self_ms", median(selfMs), len(selfMs))
	}
}
