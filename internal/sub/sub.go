// Package sub implements continuous top-k subscriptions over an SSRQ
// engine: a standing (user, k, α) query that receives incremental result
// deltas per published epoch instead of being re-run from scratch.
//
// The engine listens to the source's epoch-delta stream (Source.OnEpoch: one
// delta per published write batch) and accumulates the touched-user set. A single evaluator
// goroutine drains the set in rounds: for each subscriber it first runs a
// sound skip test — the subscriber's result can only change if the
// subscriber itself moved, a current result member was touched, the social
// state changed, or some touched user's best-possible score
// α·plb + (1−α)·d (Lemma-2 landmark lower bound plus exact Euclidean
// distance) reaches the current kth score — and only subscribers whose
// test fails pay a re-evaluation through the engine's normal (pooled,
// allocation-free) query path. Under drift workloads most epochs touch
// users far from most subscribers, so the overwhelming majority of
// (subscriber × epoch) pairs are proven unchanged and skipped.
//
// Consecutive epochs that publish between two evaluator rounds coalesce
// into one delta: every result the engine emits is exact for the world at
// its evaluation, and after a quiescent barrier (Engine.Sync following the
// source's Flush) every subscriber's result equals a from-scratch query.
package sub

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"ssrq/internal/aggindex"
	"ssrq/internal/core"
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
	"ssrq/internal/spatial"
)

// ErrClosed is returned by Subscribe after the engine has been closed.
var ErrClosed = errors.New("sub: engine closed")

// Source is the engine surface the subscription layer consumes.
// shard.Engine satisfies it at any shard count; locations and scores are in
// the engine's normalized units. OnEpoch delivers one delta per published
// write batch, after the view it describes is what Query and UserLocation
// read.
type Source interface {
	Query(algo core.Algorithm, q graph.VertexID, prm core.Params) (*core.Result, error)
	OnEpoch(fn func(aggindex.EpochDelta))
	UserLocation(id int32) (spatial.Point, bool)
}

// Engine maintains the active subscriptions over one Source.
type Engine struct {
	src Source

	mu   sync.Mutex
	cond *sync.Cond
	// seq counts change notifications (epoch deltas and subscription
	// registrations); done is the highest seq whose round has completed.
	// Waiting for done ≥ seq is the evaluation barrier behind Sync.
	seq, done uint64
	closed    bool
	// touched accumulates the users moved since the last round; the
	// evaluator swaps it with the cleared spare so the callback never
	// blocks on an in-flight round.
	touched      map[int32]struct{}
	touchedSpare map[int32]struct{}
	// socialChanged is set by any social sync (edge op or landmark
	// install): social scores have no per-user delta set, so the next
	// round re-evaluates every subscriber.
	socialChanged bool
	// lastSn is the most recently notified snapshot; its landmark tables
	// back the round's lower-bound tests. (Every shard of a view shares one
	// substrate, so the delta's one snapshot carries the view's tables.)
	lastSn *aggindex.Snapshot
	subs   []*Subscription // copy-on-write; iterate without mu

	doneCh  chan struct{}
	closedA atomic.Bool

	rounds, evals, skips, notified atomic.Int64
}

// Stats is a point-in-time snapshot of the engine's counters. Evals and
// Skips partition the (subscriber × round) pairs of epoch-triggered
// rounds; their ratio is the skip rate. Rounds triggered only by
// Subscribe calls count their initial evaluations in Evals but record no
// skips, so a subscribe storm cannot inflate the skip rate.
type Stats struct {
	Active   int   // currently registered subscriptions
	Rounds   int64 // evaluation rounds run
	Evals    int64 // full query re-evaluations paid
	Skips    int64 // (subscriber × round) pairs proven unchanged
	Notified int64 // result changes pushed to subscribers
}

// New starts a subscription engine over src. Close it before closing src.
func New(src Source) *Engine {
	e := &Engine{
		src:          src,
		touched:      make(map[int32]struct{}),
		touchedSpare: make(map[int32]struct{}),
		doneCh:       make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	src.OnEpoch(e.onEpoch)
	go e.loop()
	return e
}

// onEpoch is the source's publication callback. It runs under the source's
// writer lock, so it only records the delta and signals the evaluator.
func (e *Engine) onEpoch(d aggindex.EpochDelta) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	for _, id := range d.Moved {
		e.touched[id] = struct{}{}
	}
	if d.SocialChanged {
		e.socialChanged = true
	}
	e.lastSn = d.Snapshot
	e.seq++
	e.mu.Unlock()
	e.cond.Broadcast()
}

// SubscribeParams registers a standing query from q with parameters prm and
// blocks until its initial evaluation completes, so the subscription starts
// with a populated result (empty when q has no known location). A label
// filter in prm restricts the standing result to users carrying at least one
// requested label and lets the per-epoch skip test discard touched users the
// filter excludes. The caller owns the returned Subscription and must Close
// it when done.
func (e *Engine) SubscribeParams(q int32, prm core.Params) (*Subscription, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	st := &Subscription{eng: e, q: q, prm: prm, notify: make(chan struct{}, 1)}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	subs := make([]*Subscription, len(e.subs)+1)
	copy(subs, e.subs)
	subs[len(e.subs)] = st
	e.subs = subs
	e.seq++
	target := e.seq
	e.mu.Unlock()
	e.cond.Broadcast()
	if !e.waitDone(target) {
		return nil, ErrClosed
	}
	return st, nil
}

// Sync blocks until every epoch published (and every subscription
// registered) before the call has been through an evaluation round — the
// subscription analogue of the updater's Flush barrier. Callers wanting a
// fully settled world flush the source first. Returns immediately on a
// closed engine.
func (e *Engine) Sync() {
	e.mu.Lock()
	target := e.seq
	e.mu.Unlock()
	e.waitDone(target)
}

// waitDone blocks until done reaches target; false when the engine closed
// first.
func (e *Engine) waitDone(target uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.done < target && !e.closed {
		e.cond.Wait()
	}
	return e.done >= target
}

// Stats returns the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	n := len(e.subs)
	e.mu.Unlock()
	return Stats{
		Active:   n,
		Rounds:   e.rounds.Load(),
		Evals:    e.evals.Load(),
		Skips:    e.skips.Load(),
		Notified: e.notified.Load(),
	}
}

// Close detaches from the source, stops the evaluator (waiting out any
// in-flight round), and closes every live subscription's notify channel,
// unblocking all consumers. Idempotent. Must complete before the source
// engine itself is closed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.closedA.Store(true)
	subs := e.subs
	e.subs = nil
	e.mu.Unlock()
	e.cond.Broadcast()
	<-e.doneCh
	for _, st := range subs {
		st.closeNotify()
	}
	e.src.OnEpoch(nil)
}

// loop is the evaluator: it drains accumulated deltas in rounds, each
// round skip-testing every subscriber against the stolen touched set and
// re-evaluating only the ones that might have changed.
func (e *Engine) loop() {
	defer close(e.doneCh)
	for {
		e.mu.Lock()
		for !e.closed && e.seq == e.done {
			e.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		target := e.seq
		touched := e.touched
		e.touched = e.touchedSpare
		social := e.socialChanged
		e.socialChanged = false
		sn := e.lastSn
		subs := e.subs
		e.mu.Unlock()

		e.runRound(subs, touched, social, sn)

		clear(touched)
		e.mu.Lock()
		e.touchedSpare = touched
		e.done = target
		e.mu.Unlock()
		e.cond.Broadcast()
	}
}

// runRound skip-tests and re-evaluates the given subscription list
// against one stolen delta set.
func (e *Engine) runRound(subs []*Subscription, touched map[int32]struct{}, social bool, sn *aggindex.Snapshot) {
	if len(subs) == 0 {
		return
	}
	e.rounds.Add(1)
	// A round with no world change was triggered by Subscribe alone: it
	// exists to run initial evaluations and records no skips.
	admin := len(touched) == 0 && !social
	for _, st := range subs {
		if e.closedA.Load() {
			return
		}
		if st.isClosed() {
			continue
		}
		if !social && !e.subDirty(st, touched, sn) {
			if !admin {
				e.skips.Add(1)
			}
			continue
		}
		e.evals.Add(1)
		e.evaluate(st)
	}
}

// subDirty reports whether the touched set could possibly change st's
// result. A false return is a proof of "no change": the subscriber and
// every current result member are untouched (so every current score is
// unchanged), and every touched outsider's best possible score — the
// Lemma-2 landmark lower bound on social proximity plus its exact spatial
// distance — strictly exceeds the current kth score, so it cannot enter
// even on the (F, ID) tiebreak. Runs only on the evaluator goroutine,
// which is the sole writer of st's result state.
func (e *Engine) subDirty(st *Subscription, touched map[int32]struct{}, sn *aggindex.Snapshot) bool {
	if !st.everEval {
		return true // initial evaluation still pending
	}
	if _, ok := touched[st.q]; ok {
		return true // the subscriber itself moved
	}
	if len(touched) == 0 {
		return false
	}
	qpt, ok := e.src.UserLocation(st.q)
	if !ok {
		// Unlocated subscriber: its query yields the empty result and
		// stays empty until q itself is located again (caught above).
		return len(st.cur) > 0
	}
	kth := math.Inf(1)
	if len(st.cur) >= st.prm.K {
		kth = st.cur[len(st.cur)-1].F
	}
	var lm *landmark.Set
	if sn != nil {
		lm = sn.Landmarks()
	}
	alpha := st.prm.Alpha
	filter := st.prm.Filter
	for u := range touched {
		if u == st.q {
			continue
		}
		if _, in := st.curSet[u]; in {
			return true // a current result member moved → rescore at least
		}
		if filter != 0 && sn != nil && sn.UserLabels(u)&filter == 0 {
			continue // the filter excludes u: it cannot enter the result
		}
		upt, located := e.src.UserLocation(u)
		if !located {
			continue // unlocated: f = +Inf, cannot enter the result
		}
		d := (1 - alpha) * qpt.Dist(upt)
		if d > kth {
			continue // the spatial term alone already exceeds kth
		}
		if lm == nil {
			return true
		}
		if alpha*lm.LowerBound(graph.VertexID(st.q), graph.VertexID(u))+d <= kth {
			return true // cannot prove u stays out
		}
	}
	return false
}

// evaluate re-runs st's query from scratch and installs the result. A
// query error (the subscriber lost its location) yields the empty result.
func (e *Engine) evaluate(st *Subscription) {
	res, err := e.src.Query(core.AIS, graph.VertexID(st.q), st.prm)
	var entries []core.Entry
	if err == nil {
		entries = res.Entries
	}
	st.everEval = true
	st.setResult(entries)
}
