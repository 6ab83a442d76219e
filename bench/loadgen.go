package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clientTimeout bounds one request; a request that exceeds it is a failed op.
const clientTimeout = 2 * time.Second

// newConn returns a client that owns exactly one connection, so a stream is
// one socket and its requests queue behind each other the way one caller's do.
func newConn() *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// clock is the scheduler's view of time; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// outcome is what the transport reports about one request.
type outcome struct {
	ok    bool
	bytes int
	req   uint64 // client span ID (traced passes)
}

// sample is one request as the scheduler timed it. at and done are seconds
// from the start of the pass; latMs runs from the due time in an open loop
// and from the send in a closed loop; lagMs is how late the generator sent
// an open-loop request.
type sample struct {
	kind     opKind
	at, done float64
	latMs    float64
	lagMs    float64
	outcome
}

// runStream drives one connection for dur. rate > 0 is an open loop: op i
// is due at start + i/rate, is sent then or as soon after as the connection
// is free, and is timed from when it was due, so a stall is charged to every
// request it delayed. rate 0 is a closed loop that stops issuing at the
// deadline.
func runStream(clk clock, start time.Time, dur time.Duration, rate float64, next func() op, do func(i int, o op) outcome) []sample {
	var out []sample
	issue := func(i int, due time.Time) {
		o := next()
		sent := clk.Now()
		res := do(i, o)
		end := clk.Now()
		out = append(out, sample{
			kind:    o.Kind,
			at:      due.Sub(start).Seconds(),
			done:    end.Sub(start).Seconds(),
			latMs:   float64(end.Sub(due).Nanoseconds()) / 1e6,
			lagMs:   float64(sent.Sub(due).Nanoseconds()) / 1e6,
			outcome: res,
		})
	}
	if rate > 0 {
		n := int(rate * dur.Seconds())
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if wait := due.Sub(clk.Now()); wait > 0 {
				clk.Sleep(wait)
			}
			issue(i, due)
		}
		return out
	}
	deadline := start.Add(dur)
	for i := 0; clk.Now().Before(deadline); i++ {
		issue(i, clk.Now())
	}
	return out
}

// Wire forms of the request bodies and the parts of the responses the bench
// reads.
type movesBody struct {
	Moves []moveWire `json:"moves"`
	Flush bool       `json:"flush"`
}

type moveWire struct {
	ID int32   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

type edgesBody struct {
	Edges []edgeWire `json:"edges"`
	Flush bool       `json:"flush"`
}

type edgeWire struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	W float64 `json:"w"`
}

type entryWire struct {
	ID      int32   `json:"id"`
	F       float64 `json:"f"`
	Social  float64 `json:"social"`
	Spatial float64 `json:"spatial"`
}

type queryWire struct {
	Entries []entryWire `json:"entries"`
}

func (o op) body() []byte {
	var v any
	switch o.Kind {
	case opMoves:
		b := movesBody{Moves: make([]moveWire, len(o.Moves)), Flush: true}
		for i, m := range o.Moves {
			b.Moves[i] = moveWire(m)
		}
		v = b
	case opEdges:
		b := edgesBody{Edges: make([]edgeWire, len(o.Edges)), Flush: true}
		for i, e := range o.Edges {
			b.Edges[i] = edgeWire(e)
		}
		v = b
	}
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // finite floats and ints only: cannot fail
	}
	return buf
}

// request builds the HTTP request of an op against base.
func (o op) request(base string) *http.Request {
	var (
		req *http.Request
		err error
	)
	switch o.Kind {
	case opQuery:
		req, err = http.NewRequest(http.MethodGet, base+o.path(), nil)
	case opMoves:
		req, err = http.NewRequest(http.MethodPost, base+"/moves", bytes.NewReader(o.body()))
	case opEdges:
		req, err = http.NewRequest(http.MethodPost, base+"/edges", bytes.NewReader(o.body()))
	}
	if err != nil {
		panic(err) // fixed methods and a loopback URL: cannot fail
	}
	return req
}

// send performs one op on conn and returns the status and body. A traced
// request carries its client span ID, which the handler span names as its
// parent; the client span is recorded once the body has been read.
func send(conn *http.Client, base string, o op, rec *recorder) (status int, body []byte, span uint64, err error) {
	req := o.request(base)
	span = rec.newID()
	if rec != nil {
		req.Header.Set("X-Bench-Req", strconv.FormatUint(span, 10))
	}
	start := time.Now()
	resp, err := conn.Do(req)
	if err != nil {
		return 0, nil, span, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.record(span, 0, span, "client."+opKindName[o.Kind], start, time.Now())
	return resp.StatusCode, body, span, err
}

// sseSub is one open SSE subscription and the notify latencies read off it.
type sseSub struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	lastRound uint64
	pending   time.Time // send time of the unanswered subscriber move, zero if none
	latMs     []float64
	err       error
}

type sseDeltaWire struct {
	Round uint64 `json:"round"`
}

// openSSE subscribes user over its own connection and returns once the
// initial delta (the full result) has arrived.
func openSSE(base string, user int32) (*sseSub, error) {
	ctx, cancel := context.WithCancel(context.Background())
	url := base + "/subscribe?user=" + strconv.Itoa(int(user)) + "&k=" + strconv.Itoa(queryK) +
		"&alpha=" + strconv.FormatFloat(queryAlpha, 'g', -1, 64)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	tr := &http.Transport{DisableCompression: true}
	resp, err := tr.RoundTrip(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("subscribe: %s", resp.Status)
	}
	if err != nil {
		cancel()
		return nil, err
	}
	s := &sseSub{cancel: cancel, done: make(chan struct{})}
	first := make(chan struct{})
	go func() {
		seenFirst := false
		defer close(s.done)
		defer tr.CloseIdleConnections()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			now := time.Now()
			var d sseDeltaWire
			if err := json.Unmarshal([]byte(data), &d); err != nil {
				s.mu.Lock()
				s.err = fmt.Errorf("sse: bad delta %q: %w", data, err)
				s.mu.Unlock()
				return
			}
			s.mu.Lock()
			if !seenFirst {
				seenFirst = true
				close(first)
			} else if d.Round > s.lastRound && !s.pending.IsZero() {
				s.latMs = append(s.latMs, float64(now.Sub(s.pending).Nanoseconds())/1e6)
				s.pending = time.Time{}
			}
			s.lastRound = max(s.lastRound, d.Round)
			s.mu.Unlock()
		}
	}()
	select {
	case <-first:
		return s, nil
	case <-s.done:
		cancel()
		return nil, fmt.Errorf("sse: stream ended before the initial delta")
	case <-time.After(clientTimeout):
		cancel()
		<-s.done
		return nil, fmt.Errorf("sse: no initial delta within %v", clientTimeout)
	}
}

// markSend notes that a request carrying the subscriber's own move is about
// to be sent. While an earlier one is still unanswered the clock keeps
// running from that one.
func (s *sseSub) markSend() {
	s.mu.Lock()
	if s.pending.IsZero() {
		s.pending = time.Now()
	}
	s.mu.Unlock()
}

// waitAnswered gives the delta of the last subscriber move up to timeout to
// arrive.
func (s *sseSub) waitAnswered(timeout time.Duration) {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		s.mu.Lock()
		idle := s.pending.IsZero()
		s.mu.Unlock()
		if idle {
			return
		}
	}
}

// close ends the stream and returns the notify latencies, the number of
// subscriber moves left unanswered (0 or 1) and any stream error.
func (s *sseSub) close() (latMs []float64, unanswered int, err error) {
	s.cancel()
	<-s.done
	if !s.pending.IsZero() {
		unanswered = 1
	}
	return s.latMs, unanswered, s.err
}
