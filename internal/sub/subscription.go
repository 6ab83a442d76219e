package sub

import (
	"sort"
	"sync"

	"ssrq/internal/core"
)

// Subscription is one standing (user, k, α) query. The evaluator installs
// new results as the world changes; consumers either poll Result, or wait
// on Notify and drain the change with Delta. All methods are safe for
// concurrent use.
type Subscription struct {
	eng *Engine
	q   int32
	prm core.Params

	// everEval is owned by the evaluator goroutine (the only reader and
	// writer): false until the initial evaluation has run.
	everEval bool

	mu     sync.Mutex
	closed bool
	// notify carries an edge-triggered "result changed" signal (cap 1,
	// never blocks the evaluator); closed on Close to unblock consumers.
	notify chan struct{}
	// cur is the latest installed result, ascending (F, ID); curSet is
	// its ID membership. Written only by the evaluator (under mu, for
	// concurrent readers); the evaluator itself may read them lock-free.
	cur    []core.Entry
	curSet map[int32]struct{}
	round  uint64
	// emitted is the result state as of the last Delta call; the next
	// Delta diffs cur against it.
	emitted []core.Entry
}

// Delta is the difference between two consecutive emitted result states:
// Added entries are new to the top-k (in result order), Rescored entries
// remain but changed score, Removed lists the IDs that dropped out
// (ascending). The first Delta after Subscribe carries the full initial
// result as Added.
type Delta struct {
	Round    uint64
	Added    []core.Entry
	Rescored []core.Entry
	Removed  []int32
}

// Empty reports whether the delta carries no change.
func (d Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Rescored) == 0 && len(d.Removed) == 0
}

// Notify returns the change-signal channel: it receives (coalesced) after
// every installed result change and is closed when the subscription — or
// the whole engine — closes.
func (st *Subscription) Notify() <-chan struct{} { return st.notify }

// Result returns a copy of the current result, ascending (F, ID).
func (st *Subscription) Result() []core.Entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]core.Entry(nil), st.cur...)
}

// Delta returns the change since the previous Delta call (the full result,
// as Added, on the first call) and marks the current state as emitted.
func (st *Subscription) Delta() Delta {
	st.mu.Lock()
	defer st.mu.Unlock()
	d := Delta{Round: st.round}
	prev := make(map[int32]core.Entry, len(st.emitted))
	for _, en := range st.emitted {
		prev[en.ID] = en
	}
	for _, en := range st.cur {
		old, seen := prev[en.ID]
		switch {
		case !seen:
			d.Added = append(d.Added, en)
		case old != en:
			d.Rescored = append(d.Rescored, en)
		}
		delete(prev, en.ID)
	}
	for id := range prev {
		d.Removed = append(d.Removed, id)
	}
	sort.Slice(d.Removed, func(i, j int) bool { return d.Removed[i] < d.Removed[j] })
	st.emitted = append(st.emitted[:0], st.cur...)
	return d
}

// Close unsubscribes: the evaluator stops considering the subscription
// and the notify channel is closed. Idempotent; safe concurrently with
// Engine.Close.
func (st *Subscription) Close() {
	e := st.eng
	e.mu.Lock()
	for i, s := range e.subs {
		if s == st {
			subs := make([]*Subscription, 0, len(e.subs)-1)
			subs = append(subs, e.subs[:i]...)
			subs = append(subs, e.subs[i+1:]...)
			e.subs = subs
			break
		}
	}
	e.mu.Unlock()
	st.closeNotify()
}

// closeNotify marks the subscription closed and closes the signal channel
// exactly once.
func (st *Subscription) closeNotify() {
	st.mu.Lock()
	if !st.closed {
		st.closed = true
		close(st.notify)
	}
	st.mu.Unlock()
}

func (st *Subscription) isClosed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed
}

// setResult installs a freshly evaluated result, bumping the round and
// signalling the consumer only when it differs from the current one.
// Called only by the evaluator goroutine.
func (st *Subscription) setResult(entries []core.Entry) {
	st.mu.Lock()
	same := len(entries) == len(st.cur)
	if same {
		for i := range entries {
			if entries[i] != st.cur[i] {
				same = false
				break
			}
		}
	}
	if same {
		st.mu.Unlock()
		return
	}
	st.cur = append(st.cur[:0], entries...)
	if st.curSet == nil {
		st.curSet = make(map[int32]struct{}, len(entries))
	} else {
		clear(st.curSet)
	}
	for _, en := range entries {
		st.curSet[en.ID] = struct{}{}
	}
	st.round++
	if !st.closed {
		select {
		case st.notify <- struct{}{}:
		default:
		}
	}
	st.mu.Unlock()
	st.eng.notified.Add(1)
}
