package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req (the X-Bench-Req value, which is the client span's ID); Parent is the
// span that caused this one (0 = root). Replayed marks a span whose work was
// re-executed on the twin engine after the request completed and placed
// inside its parent synthetically: its duration is measured, its position
// is not.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Req      uint64 `json:"req,omitempty"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s span) durMs() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// "tracing off" state: every method is a no-op, so the untraced pass pays one
// nil check per call site and nothing else.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span ID before the span's end is known, so a child (the
// handler span on the far side of the socket) can name its parent.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// record adds a measured span under a fresh or pre-reserved (id != 0) ID and
// returns the ID.
func (r *recorder) record(id, parent, req uint64, name string, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.newID()
	}
	r.add(span{ID: id, Parent: parent, Req: req, Name: name,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// replay places a replayed span of the given duration inside its parent at
// startNs and returns its ID and end, so siblings can be laid end to end.
func (r *recorder) replay(parent, req uint64, name string, startNs int64, d time.Duration) (uint64, int64) {
	id := r.newID()
	end := startNs + d.Nanoseconds()
	r.add(span{ID: id, Parent: parent, Req: req, Name: name, StartNs: startNs, EndNs: end, Replayed: true})
	return id, end
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that its child spans cover. Overlapping children
// are counted once and a child reaching outside its parent is clipped, so
// self time is never negative.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered int64
		cursor := s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, cursor), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
