package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ssrq"
	"ssrq/internal/oplog"
)

// quiescentChecks is how many queries are issued against a write workload's
// server once its writers have stopped.
const quiescentChecks = 50

// scoreTol is the repository's own exactness tolerance (exp.sameResult,
// requireSameResults): scores agree to 1e-12 and IDs agree unless the two
// scores at that rank tie within it.
const scoreTol = 1e-12

// sameAnswer compares a served answer with a reference answer rank by rank.
func sameAnswer(got []entryWire, want []ssrq.Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, oracle has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Abs(g.F-w.F) > scoreTol {
			return fmt.Errorf("rank %d: f=%v (id %d), oracle f=%v (id %d)", i, g.F, g.ID, w.F, w.ID)
		}
		if g.ID != w.ID && !(i+1 < len(want) && math.Abs(want[i+1].F-w.F) <= scoreTol) &&
			!(i > 0 && math.Abs(want[i-1].F-w.F) <= scoreTol) {
			return fmt.Errorf("rank %d: id %d, oracle id %d (f=%v)", i, g.ID, w.ID, w.F)
		}
	}
	return nil
}

func oracle(eng *ssrq.Engine, o op) ([]ssrq.Entry, error) {
	res, err := eng.Query(ssrq.BruteForce, o.Q, ssrq.Params{K: queryK, Alpha: queryAlpha, Filter: o.filterMask()})
	if err != nil {
		return nil, err
	}
	return res.Entries, nil
}

// verifyChecks re-runs the sampled queries of a read-only pass with the
// by-definition algorithm on the same engine.
func verifyChecks(eng *ssrq.Engine, checks []check, log *failLog) {
	for _, c := range checks {
		log.attempt(1)
		want, err := oracle(eng, c.op)
		if err == nil {
			err = sameAnswer(c.entries, want)
		}
		if err != nil {
			log.fail("oracle: %s: %v", c.op.path(), err)
		}
	}
}

// verifyQuiescent queries a server whose writers have stopped over HTTP and
// checks each answer against the oracle. It returns the answers, which a
// recovered engine must reproduce.
func verifyQuiescent(sv *server, w *world, acked map[int32]moveOp, seed int64, log *failLog) []check {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	conn := newConn()
	defer conn.CloseIdleConnections()
	moved := make([]int32, 0, len(acked))
	for id := range acked {
		moved = append(moved, id)
	}
	slices.Sort(moved)
	var out []check
	for i := 0; i < quiescentChecks; i++ {
		// Every other query user is one the write stream moved: its answer
		// depends on the journaled state, not only on the construction
		// dataset.
		o := op{Kind: opQuery, Q: w.located[rng.Intn(len(w.located))]}
		if i%2 == 1 && len(moved) > 0 {
			o.Q = moved[rng.Intn(len(moved))]
		}
		log.attempt(1)
		status, body, _, err := send(conn, sv.url, o, nil)
		var qw queryWire
		if err == nil && status/100 != 2 {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			err = json.Unmarshal(body, &qw)
		}
		var want []ssrq.Entry
		if err == nil {
			want, err = oracle(sv.eng, o)
		}
		if err == nil {
			err = sameAnswer(qw.Entries, want)
		}
		if err != nil {
			log.fail("quiescent: %s: %v", o.path(), err)
			continue
		}
		out = append(out, check{op: o, entries: qw.Entries})
	}
	return out
}

// verifyRecovered checks a restarted engine against what the clients were
// told: every acknowledged move is where the last acknowledgement put it, and
// the answers given before the restart are given again.
func verifyRecovered(eng *ssrq.Engine, acked map[int32]moveOp, before []check, log *failLog) {
	norm := eng.Dataset().Norms().Spatial
	for id, m := range acked {
		log.attempt(1)
		// The engine stores x/norm and reports it times norm; the same two
		// roundings are applied to what was sent.
		wantX, wantY := m.X/norm*norm, m.Y/norm*norm
		got, ok := eng.UserLocation(id)
		if !ok || got.X != wantX || got.Y != wantY {
			log.fail("recovered: user %d at (%v,%v) located=%v, acknowledged (%v,%v)", id, got.X, got.Y, ok, wantX, wantY)
		}
	}
	for _, c := range before {
		log.attempt(1)
		res, err := eng.Query(ssrq.AIS, c.op.Q, ssrq.Params{K: queryK, Alpha: queryAlpha})
		if err == nil {
			err = sameAnswer(c.entries, res.Entries)
		}
		if err != nil {
			log.fail("recovered: %s: %v", c.op.path(), err)
		}
	}
}

// verifyEdges checks every acknowledged edge weight against the engine's
// newest checkpoint, which the caller has just written: the checkpoint is the
// engine's whole state as a difference from the construction dataset, the
// only place the public API shows edge weights.
func verifyEdges(eng *ssrq.Engine, w *world, ackedW map[[2]int32]float64, log *failLog) error {
	recs, _, err := eng.WALBootstrap()
	if err != nil {
		return fmt.Errorf("read checkpoint: %w", err)
	}
	state := make(map[[2]int32]float64)
	for _, r := range recs {
		if r.Kind == oplog.KindEdgeUpsert {
			state[[2]int32{min(r.U, r.V), max(r.U, r.V)}] = r.W
		}
	}
	for e, raw := range ackedW {
		log.attempt(1)
		got, ok := state[e]
		if !ok {
			// An upsert that restated the construction weight is no difference.
			got, ok = w.ds.G.EdgeWeight(e[0], e[1])
		}
		if want := raw / w.ds.Norms.Social; !ok || got != want {
			log.fail("recovered: edge (%d,%d) has weight %v present=%v, acknowledged %v", e[0], e[1], got, ok, want)
		}
	}
	return nil
}
