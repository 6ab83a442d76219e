package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ssrq"
)

// doRaw sends a raw body without JSON round-tripping (fuzz inputs are often
// invalid JSON on purpose). nil body = GET.
func doRaw(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	method := "POST"
	if body == nil {
		method = "GET"
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestEdgesBulkFlush(t *testing.T) {
	s, _, q := mkServer(t)
	body := edgesRequest{
		Edges: []edgeItem{
			{U: int32(q), V: 101, W: 0.001},
			{U: 102, V: 103, W: 0.5},
			{U: 104, V: 105, Remove: true},
		},
		Flush: true,
	}
	rec := do(t, s, "POST", "/edges", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("edges flush = %d: %s", rec.Code, rec.Body)
	}
	var resp edgesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 {
		t.Fatalf("accepted = %d", resp.Accepted)
	}
	if resp.SocialEpoch == 0 {
		t.Fatal("flushed edge batch did not advance the social epoch")
	}
	// The super-strong new friendship must show up in the query result.
	qrec := do(t, s, "GET", fmt.Sprintf("/query?q=%d&k=5&alpha=0.9", q), nil)
	if qrec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", qrec.Code, qrec.Body)
	}
	var qresp queryResponse
	if err := json.Unmarshal(qrec.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range qresp.Entries {
		if e.ID == 101 {
			found = true
		}
	}
	if !found {
		t.Fatalf("new friend 101 missing from %v", qresp.Entries)
	}
}

func TestEdgesAsyncAccepted(t *testing.T) {
	s, _, _ := mkServer(t)
	rec := do(t, s, "POST", "/edges", edgesRequest{Edges: []edgeItem{{U: 7, V: 9, W: 1}}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async edges = %d: %s", rec.Code, rec.Body)
	}
}

func TestEdgesValidation(t *testing.T) {
	s, ds, _ := mkServer(t)
	n := int32(ds.NumUsers())
	cases := []struct {
		name string
		body any
		code int
	}{
		{"empty", edgesRequest{}, http.StatusBadRequest},
		{"out-of-range-u", edgesRequest{Edges: []edgeItem{{U: -1, V: 2, W: 1}}}, http.StatusBadRequest},
		{"out-of-range-v", edgesRequest{Edges: []edgeItem{{U: 0, V: n, W: 1}}}, http.StatusBadRequest},
		{"self-loop", edgesRequest{Edges: []edgeItem{{U: 4, V: 4, W: 1}}}, http.StatusBadRequest},
		{"zero-weight", edgesRequest{Edges: []edgeItem{{U: 0, V: 1}}}, http.StatusBadRequest},
		{"negative-weight", edgesRequest{Edges: []edgeItem{{U: 0, V: 1, W: -3}}}, http.StatusBadRequest},
		{"garbage", "not json", http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := do(t, s, "POST", "/edges", c.body)
		if rec.Code != c.code {
			t.Fatalf("%s: code %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body)
		}
	}
	// Validate-all-then-enqueue: a bad tail item must reject the whole
	// request without applying the good head.
	st0 := statsOf(t, s)
	rec := do(t, s, "POST", "/edges", edgesRequest{
		Edges: []edgeItem{{U: 0, V: 1, W: 1}, {U: 2, V: 2, W: 1}},
		Flush: true,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("partial batch = %d", rec.Code)
	}
	if st := statsOf(t, s); st.SocialEpoch != st0.SocialEpoch {
		t.Fatal("rejected batch still mutated the graph")
	}
}

// TestEdgesAcceptedBeyondSixtyFourLandmarks: no landmark count makes edge
// churn unsupported; an engine with more landmarks than a 64-bit mask holds
// applies /edges like any other and keeps answering queries.
func TestEdgesAcceptedBeyondSixtyFourLandmarks(t *testing.T) {
	ds, err := ssrq.Synthesize("twitter", 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, &ssrq.Options{NumLandmarks: 70})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s := New(eng)
	rec := do(t, s, "POST", "/edges", edgesRequest{Edges: []edgeItem{{U: 0, V: 1, W: 1}, {U: 2, V: 3, Remove: true}}, Flush: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("edges on a 70-landmark engine = %d: %s", rec.Code, rec.Body)
	}
	if st := statsOf(t, s); st.SocialEpoch != 1 {
		t.Fatalf("social epoch %d after one effective batch, want 1", st.SocialEpoch)
	}
	qrec := do(t, s, "GET", "/query?q=0&k=3", nil)
	if qrec.Code != http.StatusOK {
		t.Fatalf("query on 70-landmark engine = %d", qrec.Code)
	}
}

func TestEdgesHugeWeightRejected(t *testing.T) {
	s, _, _ := mkServer(t)
	// "1e999" decodes to +Inf; the handler must refuse it.
	rec := do(t, s, "POST", "/edges", json.RawMessage(`{"edges":[{"u":0,"v":1,"w":1e999}]}`))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("inf weight = %d: %s", rec.Code, rec.Body)
	}
}

func statsOf(t *testing.T, s *Server) statsResponse {
	t.Helper()
	rec := do(t, s, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStatsReportSocialCounters(t *testing.T) {
	s, _, _ := mkServer(t)
	before := statsOf(t, s)
	rec := do(t, s, "POST", "/edges", edgesRequest{
		Edges: []edgeItem{{U: 11, V: 13, W: 0.2}, {U: 15, V: 17, Remove: true}},
		Flush: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("edges = %d: %s", rec.Code, rec.Body)
	}
	after := statsOf(t, s)
	if after.SocialEpoch <= before.SocialEpoch {
		t.Fatalf("social epoch did not advance: %d -> %d", before.SocialEpoch, after.SocialEpoch)
	}
	if after.EdgeAdds == before.EdgeAdds && after.EdgeReweights == before.EdgeReweights {
		t.Fatal("edge counters did not move")
	}
	if after.NumEdges == 0 {
		t.Fatal("stats lost the live edge count")
	}
}

// TestConcurrentEdgesAndQueries drives /edges and /query from concurrent
// clients — the HTTP-level smoke for lock-free social churn.
func TestConcurrentEdgesAndQueries(t *testing.T) {
	s, ds, q := mkServer(t)
	n := int32(ds.NumUsers())
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 10; i++ {
				u := (int32(g*31+i*7) % n)
				v := (u + 1 + int32(i)%17) % n
				if u == v {
					continue
				}
				rec := do(t, s, "POST", "/edges", edgesRequest{Edges: []edgeItem{{U: u, V: v, W: 0.3}}})
				if rec.Code != http.StatusAccepted {
					done <- fmt.Errorf("edges = %d: %s", rec.Code, rec.Body)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 8; i++ {
				rec := do(t, s, "GET", fmt.Sprintf("/query?q=%d&k=5", q), nil)
				if rec.Code != http.StatusOK {
					done <- fmt.Errorf("query = %d: %s", rec.Code, rec.Body)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzMovesDecode fuzzes the JSON decode + validation front of the two bulk
// mutation endpoints (/moves and /edges): arbitrary bodies must produce a
// clean HTTP status — 4xx or 2xx — and never a panic or an engine-corrupting
// partial apply (spot-checked by running a query afterwards). One shared
// engine keeps the target fast; accepted inputs genuinely mutate it, which
// is the point.
func FuzzMovesDecode(f *testing.F) {
	f.Add([]byte(`{"moves":[{"id":1,"x":0.5,"y":0.5}]}`))
	f.Add([]byte(`{"moves":[{"id":1,"remove":true}],"flush":true}`))
	f.Add([]byte(`{"edges":[{"u":1,"v":2,"w":0.5}]}`))
	f.Add([]byte(`{"edges":[{"u":1,"v":2,"remove":true}],"flush":true}`))
	f.Add([]byte(`{"moves":[{"id":-1}]}`))
	f.Add([]byte(`{"edges":[{"u":0,"v":0,"w":1e999}]}`))
	f.Add([]byte(`{`))

	ds, err := ssrq.Synthesize("twitter", 120, 3)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, nil)
	if err != nil {
		f.Fatal(err)
	}
	s := New(eng)

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/moves", "/edges"} {
			rec := doRaw(s, path, body)
			if rec.Code >= 500 {
				t.Fatalf("%s returned %d for %q", path, rec.Code, body)
			}
		}
		qrec := doRaw(s, "/query?q=0&k=3", nil)
		if qrec.Code != http.StatusOK {
			t.Fatalf("query broken after fuzz input %q: %d %s", body, qrec.Code, qrec.Body)
		}
	})
}
