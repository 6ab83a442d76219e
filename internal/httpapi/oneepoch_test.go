package httpapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"ssrq"
)

// TestFlushedRequestIsOneEpoch: a flushed /moves or /edges request is one
// synchronous batch — one journal append, one fsync, at most one epoch per
// shard it touches (exactly one at S=1), one social epoch for an edge batch —
// and flush keeps its read-your-writes meaning: every acknowledged move and
// weight reads back, and async moves enqueued before the request are visible
// after it, ordered before the request's own move of the same user.
func TestFlushedRequestIsOneEpoch(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			ds, err := ssrq.Synthesize("twitter", 600, 25) // every user located
			if err != nil {
				t.Fatal(err)
			}
			eng, err := ssrq.NewEngine(ds, &ssrq.Options{Shards: shards, Durability: &ssrq.DurabilityOptions{Dir: t.TempDir(), Fsync: "batch"}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Close)
			s := New(eng)
			n := ds.NumUsers()

			// 256 moves, each user onto another user's spot across the map
			// (with several shards most of them cross a boundary).
			moves := make([]moveItem, 256)
			for i := range moves {
				to, _ := ds.Location(ssrq.UserID((i*37 + 300) % n))
				moves[i] = moveItem{ID: int32(i), X: to.X, Y: to.Y}
			}
			before := statsOf(t, s)
			if rec := do(t, s, "POST", "/moves", movesRequest{Moves: moves, Flush: true}); rec.Code != http.StatusOK {
				t.Fatalf("flushed moves = %d: %s", rec.Code, rec.Body)
			}
			after := statsOf(t, s)
			fsyncs := after.Durability.Fsyncs - before.Durability.Fsyncs
			if fsyncs != 1 {
				t.Errorf("flushed 256-move request cost %d fsyncs, want 1", fsyncs)
			}
			if shards == 1 && after.Epoch != before.Epoch+1 {
				t.Errorf("flushed request published %d epochs, want 1", after.Epoch-before.Epoch)
			}
			for i, sh := range after.Shards {
				if d := sh.Epoch - before.Shards[i].Epoch; d > 1 {
					t.Errorf("shard %d published %d epochs for one request", i, d)
				}
			}
			t.Logf("%d epochs, %d fsyncs for one flushed 256-move request", after.Epoch-before.Epoch, fsyncs)
			for _, m := range moves {
				assertAt(t, s, m)
			}

			// Async moves just before a flushed request: one of a user the
			// request does not touch, one of a user it moves again.
			early := []moveItem{{ID: 500, X: moves[0].X, Y: moves[0].Y}, {ID: 501, X: moves[1].X, Y: moves[1].Y}}
			if rec := do(t, s, "POST", "/moves", movesRequest{Moves: early}); rec.Code != http.StatusAccepted {
				t.Fatalf("async moves = %d: %s", rec.Code, rec.Body)
			}
			last := moveItem{ID: 501, X: moves[2].X, Y: moves[2].Y}
			if rec := do(t, s, "POST", "/moves", movesRequest{Moves: []moveItem{last}, Flush: true}); rec.Code != http.StatusOK {
				t.Fatalf("flushed move = %d: %s", rec.Code, rec.Body)
			}
			assertAt(t, s, early[0])
			assertAt(t, s, last)

			// 16 disjoint pairs joined by edges far lighter than any in the
			// graph, so each pair's social distance is its new weight.
			edges := make([]edgeItem, 16)
			for i := range edges {
				w := ds.Norms().Social * 1e-6 * float64(i+1)
				edges[i] = edgeItem{U: int32(2 * i), V: int32(2*i + 301), W: w}
			}
			before = statsOf(t, s)
			if rec := do(t, s, "POST", "/edges", edgesRequest{Edges: edges, Flush: true}); rec.Code != http.StatusOK {
				t.Fatalf("flushed edges = %d: %s", rec.Code, rec.Body)
			}
			after = statsOf(t, s)
			if after.SocialEpoch != before.SocialEpoch+1 {
				t.Errorf("flushed 16-edge request published %d social epochs, want 1", after.SocialEpoch-before.SocialEpoch)
			}
			for _, e := range edges {
				nb, err := eng.SocialKNN(e.U, 1)
				if err != nil {
					t.Fatal(err)
				}
				got := nb[0].P * ds.Norms().Social
				if len(nb) != 1 || nb[0].ID != e.V || math.Abs(got-e.W) > 1e-9*e.W {
					t.Errorf("edge (%d,%d,%g): nearest friend %+v", e.U, e.V, e.W, nb)
				}
			}
		})
	}
}

// assertAt checks that /user reports m's position.
func assertAt(t *testing.T, s *Server, m moveItem) {
	t.Helper()
	var u userResponse
	if err := json.Unmarshal(do(t, s, "GET", fmt.Sprintf("/user/%d", m.ID), nil).Body.Bytes(), &u); err != nil {
		t.Fatal(err)
	}
	if !u.Located || math.Abs(*u.X-m.X) > 1e-9*math.Abs(m.X)+1e-12 || math.Abs(*u.Y-m.Y) > 1e-9*math.Abs(m.Y)+1e-12 {
		t.Errorf("user %d not at acknowledged (%v, %v): %+v", m.ID, m.X, m.Y, u)
	}
}
