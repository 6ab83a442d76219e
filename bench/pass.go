package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Sampling strides: every checkEvery-th query of a read-only stream is kept
// for the oracle check, and every replayEvery-th op of a traced stream is
// replayed on the twin engine, up to maxReplays of each kind over all streams.
// Both strides are odd, so the samples take filtered and unfiltered queries
// (which alternate) in turn, and both are counted per stream, so which ops are
// sampled depends on the seed alone and not on how the streams interleave.
const (
	checkEvery  = 25
	replayEvery = 9
	maxReplays  = 20
)

// notifyWait is how long after the writers stop the subscriber's last move
// may take to come back as a delta. A subscription round re-evaluates every
// standing subscription an epoch touched, which under bulk ingest takes far
// longer than a request, so this is not the request timeout.
const notifyWait = 10 * time.Second

// failLog counts attempted and failed ops and keeps the first few reasons.
type failLog struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

func (f *failLog) attempt(n int) {
	f.mu.Lock()
	f.attempted += n
	f.mu.Unlock()
}

func (f *failLog) fail(format string, args ...any) {
	f.mu.Lock()
	f.failed++
	if len(f.reasons) < 10 {
		f.reasons = append(f.reasons, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// check is a query and the answer the server gave, kept for the oracle.
type check struct {
	op      op
	entries []entryWire
}

// replayRef is a traced op chosen for replay on the twin, with the client
// span of the request it rode in on and its place in the op lists.
type replayRef struct {
	op        op
	req       uint64
	stream, i int
}

// pass is one timed window of traffic against one server.
type pass struct {
	spec spec
	sv   *server
	rec  *recorder
	gens []*opGen
	warm time.Duration
	dur  time.Duration
	log  *failLog

	samples [][]sample // per stream; each written by its own goroutine

	mu        sync.Mutex
	checks    []check
	replays   [numOpKinds][]replayRef
	acked     map[int32]moveOp     // last acknowledged position per moved user
	ackedW    map[[2]int32]float64 // last acknowledged raw weight per upserted edge, keyed low ID first
	lastMoves *op                  // last acknowledged /moves request
	respBytes []float64            // sampled query response sizes

	non2xx   atomic.Int64
	sse      *sseSub
	notifyMs []float64
}

// readOnly reports whether no stream writes, i.e. an answer given during the
// window is still the right answer after it.
func (s spec) readOnly() bool {
	for _, ss := range s.streams {
		if !ss.query {
			return false
		}
	}
	return true
}

// phase is how long after the pass starts stream i's schedule does. The open
// loops are spread evenly over one period of the fastest, so that their
// requests interleave the way independent callers' do and do not all fall
// due at the same instants.
func (s spec) phase(i int) time.Duration {
	var open, before int
	var rate float64
	for j, ss := range s.streams {
		if ss.rate > 0 {
			open++
			rate = max(rate, ss.rate)
			if j < i {
				before++
			}
		}
	}
	if s.streams[i].rate == 0 {
		return 0
	}
	return time.Duration(float64(before) / float64(open) / rate * float64(time.Second))
}

func newPass(s spec, sv *server, w *world, seed int64, rec *recorder, warm, dur time.Duration, log *failLog) *pass {
	p := &pass{spec: s, sv: sv, rec: rec, warm: warm, dur: dur, log: log,
		samples: make([][]sample, len(s.streams)), acked: make(map[int32]moveOp), ackedW: make(map[[2]int32]float64)}
	for i, ss := range s.streams {
		p.gens = append(p.gens, newOpGen(w, ss, seed, i))
	}
	return p
}

// run registers the subscriptions, drives every stream for warm+dur and
// returns when all have stopped.
func (p *pass) run() error {
	for i := 0; i < p.spec.standingSubs; i++ {
		g := p.gens[0]
		// The engine's Close ends the subscription.
		if _, err := p.sv.eng.Subscribe(g.w.located[(i*7919)%len(g.w.located)], queryK, queryAlpha); err != nil {
			return fmt.Errorf("standing subscription %d: %w", i, err)
		}
	}
	for i, ss := range p.spec.streams {
		if ss.subEvery > 0 {
			sse, err := openSSE(p.sv.url, p.gens[i].subUser)
			if err != nil {
				return err
			}
			p.sse = sse
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, ss := range p.spec.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := newConn()
			defer conn.CloseIdleConnections()
			p.samples[i] = runStream(realClock{}, start.Add(p.spec.phase(i)), p.warm+p.dur, ss.rate, p.gens[i].next, p.do(conn, i))
		}()
	}
	wg.Wait()
	for k := range p.replays {
		slices.SortFunc(p.replays[k], func(a, b replayRef) int {
			return cmp.Or(cmp.Compare(a.stream, b.stream), cmp.Compare(a.i, b.i))
		})
	}
	if p.sse != nil {
		// Once every subscription has been through the round of the last
		// epoch, the subscriber's delta is on the socket.
		p.sv.eng.SyncSubscriptions()
		p.sse.waitAnswered(notifyWait)
		lat, unanswered, err := p.sse.close()
		p.notifyMs = lat
		p.log.attempt(len(lat) + unanswered)
		if unanswered > 0 {
			p.log.fail("sse: subscriber move got no delta within %v", notifyWait)
		}
		if err != nil {
			p.log.attempt(1)
			p.log.fail("%v", err)
		}
	}
	return nil
}

// do returns the transport of one stream: it sends the op, decides whether
// it succeeded and keeps what the later checks and replays need.
func (p *pass) do(conn *http.Client, stream int) func(i int, o op) outcome {
	var replays [numOpKinds]int
	return func(i int, o op) outcome {
		if o.SubMove && p.sse != nil {
			p.sse.markSend()
		}
		p.log.attempt(1)
		status, body, req, err := send(conn, p.sv.url, o, p.rec)
		res := outcome{bytes: len(body), req: req}
		if err != nil {
			p.log.fail("%s %d: %v", opKindName[o.Kind], i, err)
			return res
		}
		if status/100 != 2 {
			p.non2xx.Add(1)
			p.log.fail("%s %d: status %d: %s", opKindName[o.Kind], i, status, body)
			return res
		}
		res.ok = true
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.rec != nil && i%replayEvery == 0 && replays[o.Kind] < maxReplays/len(p.spec.streams) {
			replays[o.Kind]++
			p.replays[o.Kind] = append(p.replays[o.Kind], replayRef{op: o, req: req, stream: stream, i: i})
		}
		switch o.Kind {
		case opQuery:
			if i%checkEvery == 0 {
				p.respBytes = append(p.respBytes, float64(len(body)))
				if p.spec.readOnly() {
					var qw queryWire
					if err := json.Unmarshal(body, &qw); err != nil {
						p.log.fail("query %d: bad body: %v", i, err)
						res.ok = false
						return res
					}
					p.checks = append(p.checks, check{op: o, entries: qw.Entries})
				}
			}
		case opMoves:
			for _, m := range o.Moves {
				p.acked[m.ID] = m
			}
			p.lastMoves = &o
		case opEdges:
			for _, e := range o.Edges {
				p.ackedW[[2]int32{min(e.U, e.V), max(e.U, e.V)}] = e.W
			}
		}
		return res
	}
}

// timed returns the latencies (ms) and generator lags (ms) of the successful
// ops of kind k issued after the warm-up, over the streams pick selects.
func (p *pass) timed(k opKind, pick func(streamSpec) bool) (lat, lag []float64) {
	for i, ss := range p.spec.streams {
		if !pick(ss) {
			continue
		}
		for _, s := range p.samples[i] {
			if s.kind == k && s.ok && s.at >= p.warm.Seconds() {
				lat = append(lat, s.latMs)
				lag = append(lag, s.lagMs)
			}
		}
	}
	return lat, lag
}

func anyStream(streamSpec) bool        { return true }
func primaryStream(ss streamSpec) bool { return ss.primary }

// perSecond is the rate of successful ops of kind k on the picked streams
// after the warm-up: count over the time from the end of the warm-up to the
// last completion.
func (p *pass) perSecond(k opKind, pick func(streamSpec) bool) float64 {
	var n int
	var last float64
	for i, ss := range p.spec.streams {
		if !pick(ss) {
			continue
		}
		for _, s := range p.samples[i] {
			if s.kind == k && s.ok && s.at >= p.warm.Seconds() {
				n++
				last = max(last, s.done)
			}
		}
	}
	if span := last - p.warm.Seconds(); span > 0 {
		return float64(n) / span
	}
	return 0
}

// primaryKind is the op kind the workload's headline latency is about.
func (s spec) primaryKind() opKind {
	for _, ss := range s.streams {
		if ss.primary && !ss.query {
			return opMoves
		}
	}
	return opQuery
}
