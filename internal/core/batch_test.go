package core

import (
	"math/rand"
	"testing"

	"ssrq/internal/graph"
)

// queryBatch answers a batch through RunBatch and the engine's ordinary
// Query path, as the server's /batch does.
func queryBatch(e *Engine, queries []BatchQuery, workers int) []BatchResult {
	return RunBatch(queries, workers, func(bq BatchQuery) (*Result, error) {
		return e.Query(bq.Algo, bq.Q, bq.Params)
	})
}

func TestQueryBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	ds := mkDataset(t, rng, 120, 0.1, false)
	e := mkEngine(t, ds, Options{})
	users := locatedUsers(ds)

	var batch []BatchQuery
	for i, algo := range []Algorithm{AIS, TSA, SFA, SPA, BruteForce, AISMinus} {
		for j := 0; j < 4; j++ {
			batch = append(batch, BatchQuery{
				Algo:   algo,
				Q:      users[(i*7+j*3)%len(users)],
				Params: Params{K: 2 + j, Alpha: 0.2 + 0.15*float64(i%4)},
			})
		}
	}
	want := make([]*Result, len(batch))
	for i, bq := range batch {
		w, err := e.Query(bq.Algo, bq.Q, bq.Params)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	for _, workers := range []int{0, 1, 3, 64} {
		outs := queryBatch(e, batch, workers)
		if len(outs) != len(batch) {
			t.Fatalf("workers=%d: %d outcomes for %d queries", workers, len(outs), len(batch))
		}
		for i, out := range outs {
			if out.Err != nil {
				t.Fatalf("workers=%d slot %d: %v", workers, i, out.Err)
			}
			sameRanking(t, batch[i].Algo.String(), out.Result, want[i])
		}
	}
}

func TestQueryBatchErrorSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := mkDataset(t, rng, 60, 0.3, false)
	e := mkEngine(t, ds, Options{})
	q := locatedUsers(ds)[0]
	var unloc graph.VertexID = -1
	for v := 0; v < ds.NumUsers(); v++ {
		if !ds.Located[v] {
			unloc = graph.VertexID(v)
			break
		}
	}
	batch := []BatchQuery{
		{Algo: AIS, Q: q, Params: Params{K: 3, Alpha: 0.5}},
		{Algo: AIS, Q: 9999, Params: Params{K: 3, Alpha: 0.5}},        // out of range
		{Algo: AIS, Q: q, Params: Params{K: 0, Alpha: 0.5}},           // bad params
		{Algo: AIS, Q: unloc, Params: Params{K: 3, Alpha: 0.5}},       // unlocated
		{Algo: Algorithm(99), Q: q, Params: Params{K: 3, Alpha: 0.5}}, // unknown algorithm
		{Algo: BruteForce, Q: q, Params: Params{K: 3, Alpha: 0.5}},
	}
	outs := queryBatch(e, batch, 2)
	for _, i := range []int{0, 5} {
		if outs[i].Err != nil || outs[i].Result == nil {
			t.Fatalf("slot %d should succeed: %v", i, outs[i].Err)
		}
	}
	for _, i := range []int{1, 2, 3, 4} {
		if outs[i].Err == nil {
			t.Fatalf("slot %d should fail", i)
		}
		if outs[i].Result != nil {
			t.Fatalf("slot %d has both result and error", i)
		}
	}
}

func TestQueryBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ds := mkDataset(t, rng, 30, 0, false)
	e := mkEngine(t, ds, Options{})
	if outs := queryBatch(e, nil, 4); len(outs) != 0 {
		t.Fatalf("empty batch returned %d outcomes", len(outs))
	}
}
