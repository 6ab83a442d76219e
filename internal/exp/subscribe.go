package exp

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"ssrq"
	"ssrq/internal/core"
	"ssrq/internal/gen"
	"ssrq/internal/httpapi"
	"ssrq/internal/spatial"
)

// RunSubscribe measures the continuous-subscription layer under sustained
// movers: N standing (user, k, α) queries are registered, a disjoint mover
// population drifts toward a hotspot (gen.Migration), and each flushed
// round reports the enqueue→all-subscriptions-settled latency. The cell is
// self-checking — it fails, rather than just reports, when the push layer
// regresses:
//
//   - any materialized view (built purely from the emitted deltas) or any
//     subscription result diverges from a from-scratch query at its
//     quiescent point,
//   - the Lemma-2 skip rate under the drift workload is ≤ 50% (the bound
//     test stopped proving "no possible change"),
//   - no evaluations ran at all (the delta stream is dead), or
//   - goroutines leak after Close() with live SSE streams attached.
//
// Runs at S=1 and S=8 (per-shard invalidation).
func (s *Suite) RunSubscribe() error {
	ids, err := s.Dataset("gowalla")
	if err != nil {
		return err
	}
	rds, err := ssrq.Synthesize("gowalla", s.Scale.GowallaN, s.Seed)
	if err != nil {
		return err
	}
	nSubs := s.Subscribers
	if nSubs <= 0 {
		nSubs = 1000
	}
	located := QueryUsers(ids, ids.NumUsers(), s.Seed+5)
	nMovers := len(located) / 8
	if nMovers < 64 {
		nMovers = 64
	}
	if nMovers >= len(located) {
		return fmt.Errorf("exp: subscribe: population too small (%d located)", len(located))
	}
	if nSubs > len(located)-nMovers {
		nSubs = len(located) - nMovers
	}
	// Movers and subscribers are disjoint: a moving subscriber is always
	// dirty by definition, which measures evaluation cost, not the Lemma-2
	// skip test this experiment exists to exercise.
	movers := make([]ssrq.UserID, nMovers)
	for i := range movers {
		movers[i] = ssrq.UserID(located[i])
	}
	subscribers := make([]ssrq.UserID, nSubs)
	for i := range subscribers {
		subscribers[i] = ssrq.UserID(located[nMovers+i])
	}

	const k = 10
	const rounds, chunk = 60, 64
	tbl := &Table{
		Title: fmt.Sprintf("Continuous subscriptions under migration drift — AIS oracle, k=%d, α=%.1f, %d subscribers, %d movers, %d rounds × %d moves",
			k, DefaultAlpha, nSubs, nMovers, rounds, chunk),
		Columns: []string{"shards", "round p50 (ms)", "p95 (ms)", "p99 (ms)",
			"skip rate", "evals", "skips", "deltas"},
	}
	for _, S := range []int{1, 8} {
		if err := s.runSubscribeCell(rds, ids.Bounds(), S, movers, subscribers, k, rounds, chunk, tbl); err != nil {
			return fmt.Errorf("exp: subscribe (S=%d): %w", S, err)
		}
	}
	tbl.Fprint(s.Out)
	fmt.Fprintln(s.Out, "per-round oracle equivalence, final sweep, SSE teardown goroutine settle: ok")
	return nil
}

func (s *Suite) runSubscribeCell(rds *ssrq.Dataset, bounds spatial.Rect, S int, movers, subscribers []ssrq.UserID, k, rounds, chunk int, tbl *Table) error {
	gBefore := runtime.NumGoroutine()
	eng, err := ssrq.NewEngine(rds, &ssrq.Options{
		GridS:        DefaultS,
		GridLevels:   DefaultLevels,
		NumLandmarks: DefaultM,
		Seed:         s.Seed,
		Shards:       S,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	views := make([]*subView, len(subscribers))
	for i, q := range subscribers {
		sb, err := eng.Subscribe(q, k, DefaultAlpha)
		if err != nil {
			return fmt.Errorf("subscribe user %d: %w", q, err)
		}
		views[i] = &subView{sb: sb}
		if err := views[i].drain(); err != nil {
			return fmt.Errorf("initial delta for %d: %v", q, err)
		}
	}
	base := eng.SubscriptionStats()

	// The migration generator works in the normalized unit square; the root
	// engine speaks raw coordinates, so convert on the way in and out.
	norm := rds.Norms().Spatial
	rng := rand.New(rand.NewSource(s.Seed + 77))
	mig, err := gen.NewMigration(bounds, gen.MigrationConfig{Jitter: 0.06}, rng)
	if err != nil {
		return err
	}

	deltas := 0
	lat := make([]time.Duration, 0, rounds)
	for round := 0; round < rounds; round++ {
		start := time.Now()
		for i := 0; i < chunk; i++ {
			id := movers[rng.Intn(len(movers))]
			cur, ok := eng.UserLocation(id)
			if !ok {
				continue
			}
			next := mig.Next(ssrq.Point{X: cur.X / norm, Y: cur.Y / norm})
			if err := eng.MoveUserAsync(id, ssrq.Point{X: next.X * norm, Y: next.Y * norm}); err != nil {
				return fmt.Errorf("round %d: move user %d: %w", round, id, err)
			}
		}
		eng.SyncSubscriptions()
		lat = append(lat, time.Since(start))

		// Fold new deltas into the client-side views, then audit a rotating
		// window of subscribers against a from-scratch query. The audit also
		// covers skip soundness: a wrongly-skipped subscription serves a
		// stale view that cannot match the oracle.
		for i, v := range views {
			if v.sb.Round() != v.seen {
				deltas++
				if err := v.drain(); err != nil {
					return fmt.Errorf("round %d: subscriber %d: %v", round, subscribers[i], err)
				}
			}
		}
		for p := 0; p < 16; p++ {
			v := views[(round*16+p)%len(views)]
			if err := v.check(eng, fmt.Sprintf("round %d", round)); err != nil {
				return err
			}
		}
	}

	// Final full sweep: every materialized view, the engine-held result, and
	// the oracle must agree exactly.
	for i, v := range views {
		if err := v.drain(); err != nil {
			return fmt.Errorf("final drain: subscriber %d: %v", subscribers[i], err)
		}
		if err := v.check(eng, "final sweep"); err != nil {
			return err
		}
		held := v.sb.Result()
		if len(held) != len(v.view) {
			return fmt.Errorf("final sweep: subscriber %d: Result() has %d entries, view %d",
				subscribers[i], len(held), len(v.view))
		}
		for j := range held {
			if held[j] != v.view[j] {
				return fmt.Errorf("final sweep: subscriber %d: Result() diverges from delta view at rank %d",
					subscribers[i], j)
			}
		}
	}

	st := eng.SubscriptionStats()
	evals := st.Evals - base.Evals
	skips := st.Skips - base.Skips
	if evals == 0 {
		return fmt.Errorf("no subscription evaluations ran — the delta pipeline is dead")
	}
	skipRate := float64(skips) / float64(evals+skips)
	if skipRate <= 0.5 {
		return fmt.Errorf("skip rate %.3f ≤ 0.5 under migration drift (%d evals, %d skips): the Lemma-2 bound test stopped pruning",
			skipRate, evals, skips)
	}

	// Teardown: attach live SSE streams, then Close the engine under churn.
	// Every stream must end and the goroutine count must settle.
	if err := s.subscribeTeardownCheck(eng, movers, norm); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > gBefore+2 {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines did not settle after Close: before=%d now=%d",
				gBefore, runtime.NumGoroutine())
		}
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}

	sum := summarizeLatencies(lat)
	tbl.AddRow(fmt.Sprint(S), ms(sum.P50), ms(sum.P95), ms(sum.P99),
		f2(skipRate), fmt.Sprint(evals), fmt.Sprint(skips), fmt.Sprint(deltas))
	s.record(Measurement{
		Dataset: "gowalla",
		Algo:    core.AIS,
		X:       float64(S),
		Runtime: sum.Mean,
		Queries: len(subscribers),
		P50:     sum.P50,
		P95:     sum.P95,
		P99:     sum.P99,
		Extra: map[string]float64{
			"skip_rate":   skipRate,
			"evals":       float64(evals),
			"skips":       float64(skips),
			"deltas":      float64(deltas),
			"subscribers": float64(len(subscribers)),
			"movers":      float64(len(movers)),
		},
	})
	return nil
}

// subscribeTeardownCheck opens live SSE streams against the engine's HTTP
// server, keeps the world churning, then closes the engine — every stream
// must terminate promptly.
func (s *Suite) subscribeTeardownCheck(eng *ssrq.Engine, movers []ssrq.UserID, norm float64) error {
	ts := httptest.NewServer(httpapi.New(eng))
	defer ts.Close()

	streams := make([]*http.Response, 0, 3)
	defer func() {
		for _, resp := range streams {
			resp.Body.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		url := fmt.Sprintf("%s/subscribe?user=%d&k=5&alpha=%g", ts.URL, movers[i], DefaultAlpha)
		resp, err := http.Get(url)
		if err != nil {
			return fmt.Errorf("open SSE stream: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("SSE stream status %d", resp.StatusCode)
		}
		streams = append(streams, resp)
		// Wait for the initial snapshot event so the stream is live before
		// the engine goes down.
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				break
			}
		}
	}
	for i := 0; i < 32; i++ {
		id := movers[i%len(movers)]
		cur, ok := eng.UserLocation(id)
		if !ok {
			continue
		}
		if err := eng.MoveUserAsync(id, ssrq.Point{X: cur.X + 0.001*norm, Y: cur.Y}); err != nil {
			return err
		}
	}

	eng.Close()

	for i, resp := range streams {
		done := make(chan struct{})
		go func(body *http.Response) {
			sc := bufio.NewScanner(body.Body)
			for sc.Scan() {
			}
			close(done)
		}(resp)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("SSE stream %d still open 10s after engine Close", i)
		}
	}
	return nil
}

// subView is one subscriber's client-side state: the view materialized
// purely from its delta stream, exactly as an SSE consumer would hold it.
type subView struct {
	sb   *ssrq.Subscription
	view []ssrq.Entry
	seen uint64
}

// drain folds any new delta into the view (no-op when the result version
// hasn't moved).
func (v *subView) drain() error {
	if v.sb.Round() == v.seen {
		return nil
	}
	d := v.sb.Delta()
	m := make(map[int32]ssrq.Entry, len(v.view)+len(d.Added))
	for _, e := range v.view {
		m[e.ID] = e
	}
	for _, id := range d.Removed {
		if _, ok := m[id]; !ok {
			return fmt.Errorf("delta removes %d which the view never held", id)
		}
		delete(m, id)
	}
	for _, e := range d.Rescored {
		if _, ok := m[e.ID]; !ok {
			return fmt.Errorf("delta rescores %d which the view never held", e.ID)
		}
		m[e.ID] = e
	}
	for _, e := range d.Added {
		if _, ok := m[e.ID]; ok {
			return fmt.Errorf("delta adds %d which the view already holds", e.ID)
		}
		m[e.ID] = e
	}
	v.view = v.view[:0]
	for _, e := range m {
		v.view = append(v.view, e)
	}
	sort.Slice(v.view, func(i, j int) bool {
		if v.view[i].F != v.view[j].F {
			return v.view[i].F < v.view[j].F
		}
		return v.view[i].ID < v.view[j].ID
	})
	v.seen = d.Round
	return nil
}

// check compares the materialized view against a from-scratch query at a
// quiescent point.
func (v *subView) check(eng *ssrq.Engine, label string) error {
	prm := v.sb.Params()
	want, err := eng.TopKWith(ssrq.AIS, v.sb.User(), prm.K, prm.Alpha)
	if err != nil {
		return fmt.Errorf("%s: oracle query for %d: %w", label, v.sb.User(), err)
	}
	if len(v.view) != len(want.Entries) {
		return fmt.Errorf("%s: subscriber %d: view has %d entries, oracle %d",
			label, v.sb.User(), len(v.view), len(want.Entries))
	}
	for i := range v.view {
		if v.view[i].ID != want.Entries[i].ID || math.Abs(v.view[i].F-want.Entries[i].F) > 1e-12 {
			return fmt.Errorf("%s: subscriber %d rank %d: view (id=%d f=%v), oracle (id=%d f=%v)",
				label, v.sb.User(), i, v.view[i].ID, v.view[i].F, want.Entries[i].ID, want.Entries[i].F)
		}
	}
	return nil
}
