package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"ssrq"
)

func mkServer(t *testing.T) (*Server, *ssrq.Dataset, ssrq.UserID) {
	t.Helper()
	ds, err := ssrq.Synthesize("twitter", 400, 9) // all users located
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(eng), ds, 0
}

func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s, _, _ := mkServer(t)
	rec := do(t, s, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
}

func TestQueryHappyPath(t *testing.T) {
	s, _, q := mkServer(t)
	rec := do(t, s, "GET", fmt.Sprintf("/query?q=%d&k=5&alpha=0.3", q), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) != 5 {
		t.Fatalf("entries = %d", len(resp.Entries))
	}
	for i := 1; i < len(resp.Entries); i++ {
		if resp.Entries[i].F < resp.Entries[i-1].F {
			t.Fatal("entries unsorted")
		}
	}
	if resp.Stats.IndexUserPops == 0 {
		t.Fatal("stats missing")
	}
}

// TestQueryStatsCarryGraphDistCounters: the reverse-search counters travel on
// the wire for the algorithm that has them and are omitted for one that
// does not.
func TestQueryStatsCarryGraphDistCounters(t *testing.T) {
	s, _, _ := mkServer(t)
	var reverse, bounded, restarts int
	for q := 0; q < 20; q++ {
		rec := do(t, s, "GET", fmt.Sprintf("/query?q=%d&k=5&alpha=0.3&algo=AIS", q), nil)
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Stats.ReversePops > resp.Stats.SocialPops || resp.Stats.BoundedStops > resp.Stats.DistCalls ||
			resp.Stats.Restarts > resp.Stats.ReversePops {
			t.Fatalf("q=%d: counters exceed their totals: %+v", q, resp.Stats)
		}
		reverse += resp.Stats.ReversePops
		bounded += resp.Stats.BoundedStops
		restarts += resp.Stats.Restarts
	}
	if reverse == 0 || bounded == 0 || restarts == 0 {
		t.Fatalf("20 AIS queries reported reverse_pops=%d bounded_stops=%d graphdist_restarts=%d", reverse, bounded, restarts)
	}
	rec := do(t, s, "GET", "/query?q=0&k=5&alpha=0.3&algo=brute", nil)
	for _, key := range []string{"reverse_pops", "bounded_stops", "graphdist_restarts"} {
		if strings.Contains(rec.Body.String(), key) {
			t.Errorf("brute-force response carries %q: %s", key, rec.Body)
		}
	}
}

func TestQueryAlgoSelection(t *testing.T) {
	s, _, q := mkServer(t)
	for _, algo := range []string{"SFA", "TSA", "AIS", "brute"} {
		rec := do(t, s, "GET", fmt.Sprintf("/query?q=%d&k=3&algo=%s", q, algo), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("algo %s = %d: %s", algo, rec.Code, rec.Body)
		}
	}
	if rec := do(t, s, "GET", fmt.Sprintf("/query?q=%d&algo=QUANTUM", q), nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown algo = %d", rec.Code)
	}
}

func TestQueryValidation(t *testing.T) {
	s, _, _ := mkServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/query", http.StatusBadRequest},                // missing q
		{"/query?q=abc", http.StatusBadRequest},          // bad q
		{"/query?q=0&k=frog", http.StatusBadRequest},     // bad k
		{"/query?q=0&alpha=nope", http.StatusBadRequest}, // bad alpha
		// Parameter-domain violations are the client's fault: 400, not the
		// engine catch-all 422 they used to fall into.
		{"/query?q=0&k=0", http.StatusBadRequest},
		{"/query?q=0&k=-3", http.StatusBadRequest},
		{"/query?q=0&alpha=1.5", http.StatusBadRequest},
		{"/query?q=0&alpha=0", http.StatusBadRequest},
		{"/query?q=0&alpha=1", http.StatusBadRequest},
		{"/query?q=0&alpha=NaN", http.StatusBadRequest}, // ParseFloat accepts NaN
		{"/query?q=0&labels=frog", http.StatusBadRequest},
		{"/query?q=0&labels=64", http.StatusBadRequest},
		{"/query?q=0&labels=-1", http.StatusBadRequest},
		// An unknown user is a missing resource, not a malformed request.
		{"/query?q=999999", http.StatusNotFound},
		// Valid labels parse fine on an unlabeled dataset (empty result).
		{"/query?q=0&labels=0,3,17", http.StatusOK},
	}
	for _, c := range cases {
		if rec := do(t, s, "GET", c.path, nil); rec.Code != c.want {
			t.Errorf("%s = %d, want %d", c.path, rec.Code, c.want)
		}
	}
}

func TestUserEndpoint(t *testing.T) {
	s, ds, _ := mkServer(t)
	rec := do(t, s, "GET", "/user/3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("user = %d", rec.Code)
	}
	var resp userResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if !resp.Located || resp.X == nil {
		t.Fatalf("user response %+v", resp)
	}
	want, _ := ds.Location(3)
	if *resp.X != want.X || *resp.Y != want.Y {
		t.Fatal("location mismatch")
	}
	if rec := do(t, s, "GET", "/user/77777", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("bogus user = %d", rec.Code)
	}
	if rec := do(t, s, "GET", "/user/xyz", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("non-numeric user = %d", rec.Code)
	}
}

func TestMoveAndUnlocate(t *testing.T) {
	s, ds, q := mkServer(t)
	target, _ := ds.Location(q)
	// Move user 42 onto the query user.
	rec := do(t, s, "POST", "/move", moveRequest{ID: 42, X: target.X, Y: target.Y})
	if rec.Code != http.StatusNoContent {
		t.Fatalf("move = %d: %s", rec.Code, rec.Body)
	}
	var resp queryResponse
	recQ := do(t, s, "GET", fmt.Sprintf("/query?q=%d&k=1&alpha=0.05", q), nil)
	_ = json.Unmarshal(recQ.Body.Bytes(), &resp)
	// With a heavily spatial alpha the teleported user should rank first
	// unless it is socially unreachable; at minimum the query must succeed.
	if recQ.Code != http.StatusOK {
		t.Fatalf("query after move = %d", recQ.Code)
	}

	rec = do(t, s, "POST", "/unlocate", unlocateRequest{ID: 42})
	if rec.Code != http.StatusNoContent {
		t.Fatalf("unlocate = %d", rec.Code)
	}
	recU := do(t, s, "GET", "/user/42", nil)
	var u userResponse
	_ = json.Unmarshal(recU.Body.Bytes(), &u)
	if u.Located {
		t.Fatal("user still located after unlocate")
	}

	// Validation.
	if rec := do(t, s, "POST", "/move", moveRequest{ID: 999999}); rec.Code != http.StatusNotFound {
		t.Fatalf("move bogus = %d", rec.Code)
	}
	req := httptest.NewRequest("POST", "/move", bytes.NewBufferString("{not json"))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("garbage body = %d", w.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, ds, _ := mkServer(t)
	rec := do(t, s, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var st ssrq.DatasetStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.NumVertices != ds.NumUsers() {
		t.Fatalf("stats users = %d", st.NumVertices)
	}
}

func TestConcurrentQueriesAndMoves(t *testing.T) {
	s, ds, q := mkServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 {
				p, _ := ds.Location(ssrq.UserID(i + 1))
				rec := do(t, s, "POST", "/move", moveRequest{ID: int32(i + 1), X: p.X + 0.01, Y: p.Y})
				if rec.Code != http.StatusNoContent {
					errs <- fmt.Sprintf("move %d: %d", i, rec.Code)
				}
				return
			}
			rec := do(t, s, "GET", fmt.Sprintf("/query?q=%d&k=5", q), nil)
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("query %d: %d", i, rec.Code)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestMovesBulkEndpoint drives the batching update pipeline through POST
// /moves with a flush barrier and verifies read-your-writes through /user.
func TestMovesBulkEndpoint(t *testing.T) {
	s, ds, q := mkServer(t)
	target, _ := ds.Location(q)
	req := movesRequest{
		Moves: []moveItem{
			{ID: 42, X: target.X, Y: target.Y},
			{ID: 43, X: target.X + 1, Y: target.Y},
			{ID: 44, Remove: true},
		},
		Flush: true,
	}
	rec := do(t, s, "POST", "/moves", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("moves with flush = %d: %s", rec.Code, rec.Body)
	}
	var resp movesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 {
		t.Fatalf("accepted = %d", resp.Accepted)
	}
	if resp.Epoch == 0 {
		t.Fatal("flush response missing epoch")
	}
	var u userResponse
	recU := do(t, s, "GET", "/user/42", nil)
	_ = json.Unmarshal(recU.Body.Bytes(), &u)
	if !u.Located || *u.X != target.X {
		t.Fatalf("flushed move invisible: %+v", u)
	}
	recU = do(t, s, "GET", "/user/44", nil)
	_ = json.Unmarshal(recU.Body.Bytes(), &u)
	if u.Located {
		t.Fatal("flushed removal invisible")
	}
}

// TestMovesAsyncAccepted: without flush the endpoint acknowledges with 202.
func TestMovesAsyncAccepted(t *testing.T) {
	s, _, _ := mkServer(t)
	rec := do(t, s, "POST", "/moves", movesRequest{Moves: []moveItem{{ID: 1, X: 1, Y: 2}}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async moves = %d: %s", rec.Code, rec.Body)
	}
}

// TestBulkWritesAfterCloseRefused: once the engine is closed, a /moves or
// /edges request, flushed or not, is 503 and changes nothing — a request is
// one batch, never a prefix of one.
func TestBulkWritesAfterCloseRefused(t *testing.T) {
	s, _, _ := mkServer(t)
	s.eng.Close()
	before := statsOf(t, s)
	at, _ := s.eng.UserLocation(1)
	for _, flush := range []bool{false, true} {
		moves := movesRequest{Moves: []moveItem{{ID: 1, X: 1, Y: 2}, {ID: 2, Remove: true}, {ID: 3, X: 3, Y: 4}}, Flush: flush}
		if rec := do(t, s, "POST", "/moves", moves); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("/moves flush=%v after Close = %d: %s", flush, rec.Code, rec.Body)
		}
		edges := edgesRequest{Edges: []edgeItem{{U: 1, V: 2, W: 5}, {U: 3, V: 4, Remove: true}}, Flush: flush}
		if rec := do(t, s, "POST", "/edges", edges); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("/edges flush=%v after Close = %d: %s", flush, rec.Code, rec.Body)
		}
	}
	after := statsOf(t, s)
	if after.Epoch != before.Epoch || after.SocialEpoch != before.SocialEpoch || after.NumEdges != before.NumEdges ||
		after.NumLocated != before.NumLocated || after.AppliedUpdates != before.AppliedUpdates {
		t.Fatalf("refused requests changed the world: stats %+v, then %+v", before, after)
	}
	if p, ok := s.eng.UserLocation(1); !ok || p != at {
		t.Fatalf("user 1 at (%v, %v), want %v", p, ok, at)
	}
}

// TestMovesValidation: bad items reject the whole batch before anything is
// enqueued.
func TestMovesValidation(t *testing.T) {
	s, _, _ := mkServer(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", `{"moves":[]}`, http.StatusBadRequest},
		{"unknown user", `{"moves":[{"id":999999,"x":1,"y":1}]}`, http.StatusBadRequest},
		{"inf x", `{"moves":[{"id":1,"x":1e999,"y":1}]}`, http.StatusBadRequest},
		{"inf y", `{"moves":[{"id":1,"x":1,"y":-1e999}]}`, http.StatusBadRequest},
		{"valid then bad", `{"moves":[{"id":1,"x":1,"y":1},{"id":2,"x":1e999,"y":0}]}`, http.StatusBadRequest},
		{"garbage", `{broken`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", "/moves", bytes.NewBufferString(c.body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != c.want {
			t.Errorf("%s = %d, want %d", c.name, w.Code, c.want)
		}
	}
	// A remove item needs no coordinates, even non-finite ones are ignored.
	rec := do(t, s, "POST", "/moves", movesRequest{Moves: []moveItem{{ID: 3, Remove: true}}, Flush: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("remove item = %d: %s", rec.Code, rec.Body)
	}
}

// TestMoveRejectsNonFinite covers the single-move endpoint (JSON 1e999
// decodes to +Inf, which must not reach the grid).
func TestMoveRejectsNonFinite(t *testing.T) {
	s, _, _ := mkServer(t)
	req := httptest.NewRequest("POST", "/move", bytes.NewBufferString(`{"id":1,"x":1e999,"y":0}`))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("non-finite move = %d: %s", w.Code, w.Body)
	}
}

// TestStatsReportsEpochAndPending: /stats carries the epoch/update pipeline
// fields alongside the dataset statistics.
func TestStatsReportsEpochAndPending(t *testing.T) {
	s, _, _ := mkServer(t)
	if rec := do(t, s, "POST", "/moves", movesRequest{Moves: []moveItem{{ID: 5, X: 1, Y: 1}}, Flush: true}); rec.Code != http.StatusOK {
		t.Fatalf("setup move = %d", rec.Code)
	}
	rec := do(t, s, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.NumVertices == 0 {
		t.Fatal("dataset stats lost from /stats")
	}
	if st.Epoch == 0 || st.AppliedUpdates == 0 || st.AppliedBatches == 0 {
		t.Fatalf("pipeline stats missing: %+v", st)
	}
}

// TestCHVariantsOverHTTP: SPA and the eight figure-only variants — the
// Fig. 8 CH baselines and the TSA/AIS ablations of Figs. 8, 10 and 11 — are
// not routable over HTTP: 400 "unknown algorithm" on /query, whatever the
// case. There is no batch route (404), and /stats carries no hierarchy keys.
func TestCHVariantsOverHTTP(t *testing.T) {
	s, _, q := mkServer(t)
	for _, algo := range []string{"SPA", "spa", "TSA-QC", "TSA-NL", "AIS-BID", "AIS-", "AIS-Cache", "SFA-CH", "SPA-CH", "tsa-ch"} {
		rec := do(t, s, "GET", fmt.Sprintf("/query?q=%d&k=3&algo=%s", q, url.QueryEscape(algo)), nil)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown algorithm") {
			t.Fatalf("/query algo %s = %d: %s", algo, rec.Code, rec.Body)
		}
	}
	if rec := doRaw(s, "/batch", []byte(`{"queries":[0]}`)); rec.Code != http.StatusNotFound {
		t.Fatalf("POST /batch = %d, want 404: %s", rec.Code, rec.Body)
	}
	rec := do(t, s, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for key := range m {
		if strings.HasPrefix(key, "ch_") {
			t.Errorf("/stats still reports %q", key)
		}
	}
}

// TestBodyCaps holds every JSON-body endpoint to its byte cap: a valid body
// padded with whitespace to exactly the cap keeps its usual status, and one
// byte more gets 413 whether the excess comes before the JSON value or after
// it.
func TestBodyCaps(t *testing.T) {
	s, _, _ := mkServer(t)
	cases := []struct {
		path string
		cap  int
		body string
		want int
	}{
		{"/move", maxPointBody, `{"id":3,"x":0.5,"y":0.5}`, http.StatusNoContent},
		{"/unlocate", maxPointBody, `{"id":4}`, http.StatusNoContent},
		{"/moves", maxBulkBody, `{"moves":[{"id":5,"x":0.5,"y":0.5}]}`, http.StatusAccepted},
		{"/edges", maxBulkBody, `{"edges":[{"u":7,"v":9,"w":1}]}`, http.StatusAccepted},
	}
	for _, c := range cases {
		pad := func(n int) string { return strings.Repeat(" ", n-len(c.body)) }
		if rec := doRaw(s, c.path, []byte(c.body+pad(c.cap))); rec.Code != c.want {
			t.Errorf("%s at its cap: %d, want %d: %s", c.path, rec.Code, c.want, rec.Body)
		}
		if rec := doRaw(s, c.path, []byte(c.body+pad(c.cap+1))); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s one byte over its cap, excess after the value: %d, want 413: %s", c.path, rec.Code, rec.Body)
		}
		if rec := doRaw(s, c.path, []byte(pad(c.cap+1)+c.body)); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s one byte over its cap, excess before the value: %d, want 413: %s", c.path, rec.Code, rec.Body)
		}
	}
}
