package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"ssrq"
)

// mkShardedServer builds a server over a 4-shard engine.
func mkShardedServer(t *testing.T) (*Server, *ssrq.Dataset) {
	t.Helper()
	ds, err := ssrq.Synthesize("gowalla", 500, 21)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, &ssrq.Options{Shards: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return New(eng), ds
}

// TestShardedServerEndToEnd drives the full HTTP surface against a sharded
// engine — queries, batch, moves crossing shard regions, edges — and checks
// the /stats sharding section reports per-shard state and fan-out counters.
func TestShardedServerEndToEnd(t *testing.T) {
	s, ds := mkShardedServer(t)
	var q ssrq.UserID = -1
	for id := 0; id < ds.NumUsers(); id++ {
		if ds.Located(ssrq.UserID(id)) {
			q = ssrq.UserID(id)
			break
		}
	}
	if q < 0 {
		t.Fatal("no located user")
	}

	// Sharded query results arrive sorted and non-empty.
	rec := do(t, s, "GET", fmt.Sprintf("/query?q=%d&k=8&alpha=0.3", q), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body)
	}
	var qresp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	if len(qresp.Entries) == 0 {
		t.Fatal("sharded query returned nothing")
	}
	for i := 1; i < len(qresp.Entries); i++ {
		if qresp.Entries[i].F < qresp.Entries[i-1].F {
			t.Fatal("sharded entries unsorted")
		}
	}

	// Bulk moves route by region; flush makes them visible.
	if p, ok := ds.Location(q); ok {
		rec = do(t, s, "POST", "/moves", movesRequest{
			Moves: []moveItem{{ID: int32(q), X: p.X + 1, Y: p.Y + 1}},
			Flush: true,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("moves = %d: %s", rec.Code, rec.Body)
		}
	}

	// Edge updates broadcast to every shard.
	rec = do(t, s, "POST", "/edges", edgesRequest{
		Edges: []edgeItem{{U: int32(q), V: int32(q) + 1, W: 50}},
		Flush: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("edges = %d: %s", rec.Code, rec.Body)
	}

	// /stats carries the sharding section.
	rec = do(t, s, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.NumShards != 4 || len(st.Shards) != 4 {
		t.Fatalf("stats reports %d shards (%d entries), want 4", st.NumShards, len(st.Shards))
	}
	if st.ShardsQueried == 0 {
		t.Fatal("no shards queried recorded")
	}
	located := 0
	for i, sh := range st.Shards {
		if sh.Shard != i {
			t.Fatalf("shard %d reports index %d", i, sh.Shard)
		}
		if sh.Cells == 0 {
			t.Fatalf("shard %d owns no cells", i)
		}
		located += sh.NumLocated
	}
	if located != st.NumLocated {
		t.Fatalf("per-shard located sums to %d, aggregate says %d", located, st.NumLocated)
	}
	// Every shard saw the broadcast edge epoch.
	for _, sh := range st.Shards {
		if sh.SocialEpoch == 0 {
			t.Fatalf("shard %d missed the edge broadcast: %+v", sh.Shard, sh)
		}
	}
	// The engine reports its occupancy imbalance, ≥ 1 by construction.
	if st.Imbalance < 1 {
		t.Fatalf("sharded /stats imbalance = %v, want ≥ 1", st.Imbalance)
	}
}

// TestStatsShardSectionAtOneShard: /stats has one shape at every shard count.
// The default engine reports num_shards 1, one shards entry holding every
// located user and imbalance 1; with no empty shard, shards_empty is zero
// and omitted.
func TestStatsShardSectionAtOneShard(t *testing.T) {
	s, _, _ := mkServer(t)
	do(t, s, "GET", "/query?q=1&k=3&alpha=0.3", nil)
	rec := do(t, s, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.NumShards != 1 || len(st.Shards) != 1 || st.Imbalance != 1 {
		t.Fatalf("num_shards %d, %d shards entries, imbalance %v", st.NumShards, len(st.Shards), st.Imbalance)
	}
	if sh := st.Shards[0]; sh.Shard != 0 || sh.NumLocated != st.NumLocated || sh.Cells == 0 {
		t.Fatalf("shards[0] = %+v, want all %d located users", sh, st.NumLocated)
	}
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["shards_empty"]; present {
		t.Fatal("one-shard /stats reports shards_empty")
	}
	// The engine has one update queue: its depth is a top-level key, not a
	// per-shard one.
	if _, present := raw["pending_updates"]; !present {
		t.Fatal("/stats lacks the top-level pending_updates")
	}
	if _, present := raw["shards"].([]any)[0].(map[string]any)["pending_updates"]; present {
		t.Fatal("/stats still reports pending_updates per shard")
	}
}
