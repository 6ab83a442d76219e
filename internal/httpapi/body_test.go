package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ssrq"
)

// jsonOnly decodes data with encoding/json alone, under the trailing-data
// rule: the reference the bulk body scanner is held to.
func jsonOnly(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return errTrailing
	}
	return nil
}

func bodyOf(data []byte) *body {
	b := new(body)
	b.buf.Write(data)
	return b
}

// checkBulkDecode holds decodeMoves and decodeEdges on data to encoding/json
// alone: the same error text, or the same flush flag and the same items, bit
// for bit.
func checkBulkDecode(t *testing.T, data []byte) {
	t.Helper()
	b := bodyOf(data)

	var mreq movesRequest
	want := jsonOnly(data, &mreq)
	flush, got := b.decodeMoves()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("/moves %q: error %v, encoding/json %v", data, got, want)
	}
	if want == nil {
		if flush != mreq.Flush || len(b.moves) != len(mreq.Moves) {
			t.Fatalf("/moves %q: flush %v and %d moves, encoding/json %v and %d", data, flush, len(b.moves), mreq.Flush, len(mreq.Moves))
		}
		for i, m := range mreq.Moves {
			u := b.moves[i]
			if u.ID != m.ID || u.Remove != m.Remove ||
				math.Float64bits(u.To.X) != math.Float64bits(m.X) || math.Float64bits(u.To.Y) != math.Float64bits(m.Y) {
				t.Fatalf("/moves %q: move %d is %+v, encoding/json %+v", data, i, u, m)
			}
		}
	}

	var ereq edgesRequest
	want = jsonOnly(data, &ereq)
	flush, got = b.decodeEdges()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("/edges %q: error %v, encoding/json %v", data, got, want)
	}
	if want == nil {
		if flush != ereq.Flush || len(b.edges) != len(ereq.Edges) {
			t.Fatalf("/edges %q: flush %v and %d edges, encoding/json %v and %d", data, flush, len(b.edges), ereq.Flush, len(ereq.Edges))
		}
		for i, e := range ereq.Edges {
			u := b.edges[i]
			if u.U != e.U || u.V != e.V || u.Remove != e.Remove || math.Float64bits(u.Weight) != math.Float64bits(e.W) {
				t.Fatalf("/edges %q: edge %d is %+v, encoding/json %+v", data, i, u, e)
			}
		}
	}
}

// bulkSeeds are bodies on and just off the canonical shape.
var bulkSeeds = []string{
	`{"moves":[{"id":1,"x":0.5,"y":0.5}],"flush":true}`,
	`{"moves":[{"id":1,"remove":true},{"id":2,"x":-0,"y":1e-3}]}`,
	`{"edges":[{"u":1,"v":2,"w":0.5},{"u":3,"v":4,"remove":true}],"flush":false}`,
	` 	{ "flush" : true , "moves" : [ { "y" : 2 , "x" : 1 , "id" : 7 } ] }
`,
	`{}`, `{"moves":[]}`, `{"edges":[]}`, `null`, `[]`, `""`, ``, ` `,
	// Case-variant and escaped keys: encoding/json matches them.
	`{"Moves":[{"ID":1,"X":1,"Y":2}]}`, `{"edges":[{"U":1,"V":2,"W":3}]}`,
	`{"mo\u0076es":[{"id":1,"x":1,"y":2}]}`, `{"moves":[{"\u0069d":1,"x":1,"y":2}]}`,
	// null, duplicate keys and unknown fields.
	`{"moves":null}`, `{"moves":[null]}`, `{"moves":[{"id":null,"x":1,"y":1}]}`, `{"flush":null}`,
	`{"moves":[{"id":1,"x":1,"y":2,"x":3}]}`, `{"moves":[{"id":1,"x":5,"remove":true}],"moves":[{"id":2}]}`,
	`{"flush":true,"flush":false,"edges":[{"u":1,"v":2,"w":1}]}`,
	`{"moves":[{"id":1,"x":1,"y":1,"z":0}],"extra":{"a":[1,2]}}`,
	// Numbers on and off JSON's grammar.
	`{"moves":[{"id":-0,"x":-0,"y":-0.0}]}`, `{"moves":[{"id":1,"x":1e5,"y":-2.5E-3}]}`,
	`{"moves":[{"id":1,"x":1E+2,"y":0e0}]}`, `{"moves":[{"id":01,"x":1,"y":1}]}`,
	`{"moves":[{"id":1,"x":01,"y":1}]}`, `{"moves":[{"id":+1,"x":1,"y":1}]}`,
	`{"moves":[{"id":1,"x":+1,"y":1}]}`, `{"moves":[{"id":1,"x":0x1p-2,"y":1}]}`,
	`{"moves":[{"id":1,"x":1.,"y":1}]}`, `{"moves":[{"id":1,"x":.5,"y":1}]}`,
	`{"moves":[{"id":1,"x":1e,"y":1}]}`, `{"moves":[{"id":1,"x":Infinity,"y":1}]}`,
	`{"moves":[{"id":1,"x":NaN,"y":1}]}`, `{"moves":[{"id":1,"x":1_0,"y":1}]}`,
	`{"moves":[{"id":1,"x":1e999,"y":1}]}`, `{"moves":[{"id":1,"x":4.9e-325,"y":1}]}`,
	`{"moves":[{"id":1,"x":0.1000000000000000055511151231257827021181583404541015625,"y":1}]}`,
	`{"moves":[{"id":1.0,"x":1,"y":1}]}`, `{"moves":[{"id":1e0,"x":1,"y":1}]}`,
	`{"edges":[{"u":2147483647,"v":-2147483648,"w":1}]}`, `{"edges":[{"u":2147483648,"v":1,"w":1}]}`,
	`{"edges":[{"u":-2147483649,"v":1,"w":1}]}`, `{"edges":[{"u":99999999999999999999,"v":1,"w":1}]}`,
	`{"moves":[{"id":1,"x":"1","y":1}]}`, `{"moves":[{"id":1,"remove":"true"}]}`,
	`{"moves":[{"id":1,"remove":truex}]}`, `{"moves":[{"id":1,"remove":tru}]}`, `{"flush":1}`,
	// Structure off the shape, and trailing data.
	`{"moves":[{"id":1,"x":1,"y":1},]}`, `{"moves":[{"id":1,"x":1,"y":1}],}`, `{"moves":{"id":1}}`,
	`{"moves":[[1]]}`, `{"moves":[{"id":1 "x":1}]}`, `{"moves"`, `{"moves":[{"id":1,"x":1,"y":1}]`,
	`{"moves":[{"id":1,"x":1,"y":1}]} x`, `{"moves":[{"id":1,"x":1,"y":1}]}{"moves":[{"id":2,"x":1,"y":1}]}`,
	`{"edges":[{"u":1,"v":2,"w":1}]} ]`, `{} {}`, `null null`, "{\"moves\":[]}\n\t\r ",
	`{"moves\"":[]}`, "{\"mo\x00ves\":[]}", "\xef\xbb\xbf{}",
}

// FuzzBulkBodyDecode holds the bulk body decoders — the canonical-shape
// scanner, falling back to encoding/json — to encoding/json alone, under the
// trailing-data rule: for any bytes, the same accept or reject (with the
// same error text) and, on accept, the same flush flag and the same items,
// every float bit for bit.
func FuzzBulkBodyDecode(f *testing.F) {
	for _, s := range bulkSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkBulkDecode(t, data) })
}

// TestCanonicalBodiesTakeTheScanner: a canonical body, whatever its key
// order and whitespace, is read by the scanner, not left to encoding/json.
func TestCanonicalBodiesTakeTheScanner(t *testing.T) {
	for _, s := range []string{
		bulkSeeds[0], bulkSeeds[1], bulkSeeds[3], `{}`, `{"moves":[]}`,
		string(canonicalMoves(rand.New(rand.NewSource(1)), 256)),
	} {
		if _, _, ok := scanBulk(&scanner{b: []byte(s)}, "moves", nil, moveField); !ok {
			t.Errorf("canonical /moves body left to encoding/json: %q", s)
		}
	}
	for _, s := range []string{bulkSeeds[2], `{"edges":[]}`, string(canonicalEdges(rand.New(rand.NewSource(1)), 16))} {
		if _, _, ok := scanBulk(&scanner{b: []byte(s)}, "edges", nil, edgeField); !ok {
			t.Errorf("canonical /edges body left to encoding/json: %q", s)
		}
	}
}

// canonicalMoves is a flushed body of n moves as a client's encoding/json
// writes it.
func canonicalMoves(rng *rand.Rand, n int) []byte {
	req := movesRequest{Flush: true}
	for i := 0; i < n; i++ {
		req.Moves = append(req.Moves, moveItem{ID: rng.Int31n(30000), X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
	}
	data, _ := json.Marshal(req)
	return data
}

// canonicalEdges is a flushed body of n edge upserts.
func canonicalEdges(rng *rand.Rand, n int) []byte {
	req := edgesRequest{Flush: true}
	for i := 0; i < n; i++ {
		req.Edges = append(req.Edges, edgeItem{U: rng.Int31n(30000), V: rng.Int31n(30000), W: rng.Float64()})
	}
	data, _ := json.Marshal(req)
	return data
}

// TestBulkBodyAllocBudget pins the bulk decode to no allocation beyond the
// update slice, which the request's pooled scratch already holds: decoding a
// canonical 256-move or 16-edge body again allocates nothing.
func TestBulkBodyAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, c := range []struct {
		name   string
		data   []byte
		decode func(*body) (bool, error)
		n      func(*body) int
	}{
		{"256 moves", canonicalMoves(rng, 256), (*body).decodeMoves, func(b *body) int { return len(b.moves) }},
		{"16 edges", canonicalEdges(rng, 16), (*body).decodeEdges, func(b *body) int { return len(b.edges) }},
	} {
		b := bodyOf(c.data)
		if _, err := c.decode(b); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.decode(b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s (%d bytes, %d items): %.1f allocs per decode", c.name, len(c.data), c.n(b), allocs)
		if allocs > 0 {
			t.Errorf("%s: %.1f allocs per decode, want 0", c.name, allocs)
		}
	}
}

// TestOverCountBodyNotPooled: a /moves or /edges body with more items than
// the endpoint accepts, though under the byte cap, is a 413, and the update
// slice the scanner grew for it is not kept in the body pool.
func TestOverCountBodyNotPooled(t *testing.T) {
	s, _, _ := mkServer(t)
	for _, c := range []struct {
		path, list, item string
		max              int
	}{
		{"/moves", "moves", `{"id":1}`, maxMoves},
		{"/edges", "edges", `{"u":1,"v":2}`, maxEdges},
	} {
		items := strings.Repeat(c.item+",", c.max) + c.item
		rec := doRaw(s, c.path, []byte(`{"`+c.list+`":[`+items+`]}`))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with %d items: %d %s, want 413", c.path, c.max+1, rec.Code, rec.Body)
		}
		for i := 0; i < 64; i++ {
			b := bodyPool.Get().(*body)
			if cap(b.moves) > maxMoves || cap(b.edges) > maxEdges {
				t.Fatalf("%s: pooled body keeps %d moves and %d edges of capacity", c.path, cap(b.moves), cap(b.edges))
			}
		}
	}
}

// TestTrailingDataRejected: every JSON-body endpoint answers 400 "bad body:
// trailing data" to a valid body followed by anything but whitespace — a
// second value, which used to be dropped unread, or garbage — and /moves
// and /edges do so on the scanner's path and on encoding/json's. Trailing
// whitespace stays fine.
func TestTrailingDataRejected(t *testing.T) {
	s, _, _ := mkServer(t)
	cases := []struct {
		path, body string
		ok         int
	}{
		{"/move", `{"id":3,"x":0.5,"y":0.5}`, http.StatusNoContent},
		{"/unlocate", `{"id":4}`, http.StatusNoContent},
		{"/moves", `{"moves":[{"id":5,"x":0.5,"y":0.5}],"flush":true}`, http.StatusOK},
		{"/moves", `{"Moves":[{"id":5,"x":0.5,"y":0.5}],"flush":true}`, http.StatusOK}, // encoding/json's path
		{"/edges", `{"edges":[{"u":7,"v":9,"w":1}],"flush":true}`, http.StatusOK},
		{"/edges", `{"edges":[{"u":7,"v":9,"W":1}],"flush":true}`, http.StatusOK}, // encoding/json's path
	}
	for _, c := range cases {
		t.Run(strings.TrimPrefix(c.path, "/"), func(t *testing.T) {
			for _, tail := range []string{" " + c.body, c.body, " garbage", "}", "\x00"} {
				rec := doRaw(s, c.path, []byte(c.body+tail))
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad body: trailing data") {
					t.Errorf("%s + %q: %d %s, want 400 bad body: trailing data", c.body, tail, rec.Code, rec.Body)
				}
			}
			if rec := doRaw(s, c.path, []byte(c.body+" \n\t\r")); rec.Code != c.ok {
				t.Errorf("%s + whitespace: %d, want %d: %s", c.body, rec.Code, c.ok, rec.Body)
			}
		})
	}
	// The second of two concatenated /moves bodies is never applied.
	rec := doRaw(s, "/moves", []byte(`{"moves":[{"id":6,"x":0.25,"y":0.25}],"flush":true}{"moves":[{"id":8,"remove":true}],"flush":true}`))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("two bodies: %d %s", rec.Code, rec.Body)
	}
	var u userResponse
	_ = json.Unmarshal(doRaw(s, "/user/8", nil).Body.Bytes(), &u)
	if !u.Located {
		t.Fatal("a rejected request's second body was applied")
	}
}

// TestOutOfRangeNumberRejected: a number JSON can write but float64 cannot
// hold, 1e999, is a 400 naming it on /move, /moves and /edges — from a
// canonical body, which the scanner hands to encoding/json at the number,
// and from one encoding/json decodes from the start. It never reaches the
// engine as +Inf.
func TestOutOfRangeNumberRejected(t *testing.T) {
	s, _, _ := mkServer(t)
	for _, c := range []struct{ path, body string }{
		{"/move", `{"id":1,"x":1e999,"y":0}`},
		{"/moves", `{"moves":[{"id":1,"x":1e999,"y":0}],"flush":true}`},
		{"/moves", `{"moves":[{"ID":1,"x":1,"y":-1e999}],"flush":true}`},
		{"/edges", `{"edges":[{"u":1,"v":2,"w":1e999}],"flush":true}`},
		{"/edges", `{"edges":[{"u":1,"v":2,"w":1e999,"extra":0}],"flush":true}`},
	} {
		rec := doRaw(s, c.path, []byte(c.body))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "cannot unmarshal number") || !strings.Contains(rec.Body.String(), "1e999") {
			t.Errorf("%s %s: %d %s, want 400 cannot unmarshal number …1e999", c.path, c.body, rec.Code, rec.Body)
		}
	}
}

// BenchmarkFlushedMovesRequest times one flushed 256-move /moves request
// through Server.ServeHTTP on a 30k-user gowalla world: body read and
// decode, validation, the engine's apply and publish, and the response. The
// bodies come in pairs — 256 users sent next to other users, then the same
// users sent home — so every request moves users across leaves however long
// the run.
func BenchmarkFlushedMovesRequest(b *testing.B) {
	ds, err := ssrq.Synthesize("gowalla", 30000, 42)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, &ssrq.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	s := New(eng)
	var located []int32
	for u := int32(0); int(u) < ds.NumUsers(); u++ {
		if _, ok := ds.Location(u); ok {
			located = append(located, u)
		}
	}
	rng := rand.New(rand.NewSource(51))
	var bodies [][]byte
	for pair := 0; pair < 16; pair++ {
		out, home := movesRequest{Flush: true}, movesRequest{Flush: true}
		for i := 0; i < 256; i++ {
			id := located[rng.Intn(len(located))]
			at, _ := ds.Location(located[rng.Intn(len(located))])
			from, _ := ds.Location(id)
			out.Moves = append(out.Moves, moveItem{ID: id, X: at.X * (1 + rng.NormFloat64()*1e-3), Y: at.Y * (1 + rng.NormFloat64()*1e-3)})
			home.Moves = append(home.Moves, moveItem{ID: id, X: from.X, Y: from.Y})
		}
		for _, req := range []movesRequest{out, home} {
			data, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, data)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/moves", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("flushed moves: %d %s", rec.Code, rec.Body)
		}
	}
}
