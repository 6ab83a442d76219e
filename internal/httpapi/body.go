package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"ssrq"
)

// Request bodies (DESIGN §6.5). A body is read once, whole, into a pooled
// buffer and then decoded. /moves and /edges bodies of the canonical shape —
// one flat object per item with the documented keys, each at most once —
// are scanned straight into the update slice; any other body, and every
// other endpoint's, goes to encoding/json, which stays the definition of
// what the endpoints accept. The scanner accepts a body only where
// encoding/json would accept it and decode the same values, bit for bit
// (FuzzBulkBodyDecode); on anything else it gives up and lets encoding/json
// decide, and word, the outcome.

// errTrailing rejects a body with anything but whitespace after its value.
var errTrailing = errors.New("trailing data")

// maxPooledBody is the largest buffer a finished request returns to the
// pool; a rare large body is left to the garbage collector.
const maxPooledBody = 1 << 20

// body is one request's pooled scratch: its bytes and, for the bulk
// endpoints, the scanner and the decoded updates. The engine does not retain
// a batch it is handed (ApplyUpdates, ApplyUpdatesAsync and their edge
// forms), so the updates never outlive the request. The scanner lives
// here, not on the stack, because the per-item field readers it is handed
// would make a local one escape: one allocation per request.
type body struct {
	buf   bytes.Buffer
	scan  scanner
	moves []ssrq.Update
	edges []ssrq.EdgeUpdate
}

var bodyPool = sync.Pool{New: func() any { return new(body) }}

// readBody reads the request's body, at most limit bytes, into a pooled
// buffer; the caller hands it back with put. On failure it has written the
// response — 413 for a body over limit, 400 for a failed read — and returns
// nil.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) *body {
	b := bodyPool.Get().(*body)
	b.buf.Reset()
	_, err := b.buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit))
	case err != nil:
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
	default:
		return b
	}
	b.put()
	return nil
}

// put hands b back to the pool, unless a request grew it past what a
// request the endpoints accept needs: a buffer over maxPooledBody, or an
// update slice over maxMoves or maxEdges, which an over-count body (413)
// leaves behind. Those are left to the garbage collector.
func (b *body) put() {
	if b.buf.Cap() <= maxPooledBody && cap(b.moves) <= maxMoves && cap(b.edges) <= maxEdges {
		bodyPool.Put(b)
	}
}

// decodeBody decodes the request's JSON body into v, reading at most limit
// bytes, and reports whether it succeeded. On failure it has written the
// response: 413 for a body over limit, 400 for a malformed one, or one with
// anything but whitespace after its value.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	b := readBody(w, r, limit)
	if b == nil {
		return false
	}
	defer b.put()
	if err := decodeJSON(b.buf.Bytes(), v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return false
	}
	return true
}

// decodeJSON decodes the one JSON value data holds into v with
// encoding/json. Whitespace may follow the value; anything else is
// errTrailing.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	for _, c := range data[dec.InputOffset():] {
		if !isSpace(c) {
			return errTrailing
		}
	}
	return nil
}

// decodeMoves decodes a /moves body into b.moves and returns its flush flag.
func (b *body) decodeMoves() (bool, error) {
	b.scan = scanner{b: b.buf.Bytes()}
	moves, flush, ok := scanBulk(&b.scan, "moves", b.moves[:0], moveField)
	b.moves = moves
	if ok {
		return flush, nil
	}
	var req movesRequest
	if err := decodeJSON(b.buf.Bytes(), &req); err != nil {
		return false, err
	}
	b.moves = b.moves[:0]
	for _, m := range req.Moves {
		b.moves = append(b.moves, ssrq.Update{ID: m.ID, To: ssrq.Point{X: m.X, Y: m.Y}, Remove: m.Remove})
	}
	return req.Flush, nil
}

// decodeEdges decodes an /edges body into b.edges and returns its flush flag.
func (b *body) decodeEdges() (bool, error) {
	b.scan = scanner{b: b.buf.Bytes()}
	edges, flush, ok := scanBulk(&b.scan, "edges", b.edges[:0], edgeField)
	b.edges = edges
	if ok {
		return flush, nil
	}
	var req edgesRequest
	if err := decodeJSON(b.buf.Bytes(), &req); err != nil {
		return false, err
	}
	b.edges = b.edges[:0]
	for _, e := range req.Edges {
		b.edges = append(b.edges, ssrq.EdgeUpdate{U: e.U, V: e.V, Weight: e.W, Remove: e.Remove})
	}
	return req.Flush, nil
}

// scanBulk reads a canonical bulk body, {"<list>":[item…],"flush":bool},
// from s, appending its items to dst; field reads one member of an item. ok
// is false, and the items unspecified, for a body off that shape.
func scanBulk[T any](s *scanner, list string, dst []T, field func(s *scanner, x *T, key []byte) (bit int, ok bool)) (items []T, flush, ok bool) {
	ok = s.object(func(key []byte) (int, bool) {
		switch string(key) {
		case list:
			return 1, s.array(func() bool {
				var zero T
				dst = append(dst, zero)
				x := &dst[len(dst)-1]
				return s.object(func(key []byte) (int, bool) { return field(s, x, key) })
			})
		case "flush":
			var ok bool
			flush, ok = s.bool()
			return 2, ok
		}
		return 0, false
	})
	return dst, flush, ok && s.end()
}

// moveField reads one member of a /moves item.
func moveField(s *scanner, u *ssrq.Update, key []byte) (bit int, ok bool) {
	switch string(key) {
	case "id":
		u.ID, ok = s.int32()
		bit = 1
	case "x":
		u.To.X, ok = s.float()
		bit = 2
	case "y":
		u.To.Y, ok = s.float()
		bit = 4
	case "remove":
		u.Remove, ok = s.bool()
		bit = 8
	}
	return bit, ok
}

// edgeField reads one member of an /edges item.
func edgeField(s *scanner, e *ssrq.EdgeUpdate, key []byte) (bit int, ok bool) {
	switch string(key) {
	case "u":
		e.U, ok = s.int32()
		bit = 1
	case "v":
		e.V, ok = s.int32()
		bit = 2
	case "w":
		e.Weight, ok = s.float()
		bit = 4
	case "remove":
		e.Remove, ok = s.bool()
		bit = 8
	}
	return bit, ok
}

// scanner reads the canonical shape of a bulk body. Each method reports
// false where the bytes leave that shape, whether or not they are valid
// JSON; the caller then hands the body to encoding/json.
type scanner struct {
	b []byte
	i int
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (s *scanner) skipSpace() {
	for s.i < len(s.b) && isSpace(s.b[s.i]) {
		s.i++
	}
}

// eat consumes c, after any whitespace.
func (s *scanner) eat(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// object reads an object whose member values member reads. member gets each
// key, reads its value and returns the key's bit, or false for a key or
// value off the shape. A repeated key is off the shape too: encoding/json
// lets the last one win, even inside an array it has begun to fill.
func (s *scanner) object(member func(key []byte) (bit int, ok bool)) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	seen := 0
	for {
		key, ok := s.key()
		if !ok {
			return false
		}
		bit, ok := member(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// array reads an array whose elements elem reads.
func (s *scanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// key reads an object key and its colon. A key with an escape is off the
// shape: no canonical key has one, and encoding/json would unescape it.
func (s *scanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' && s.b[s.i] != '\\' {
		s.i++
	}
	if s.i == len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	key := s.b[start:s.i]
	s.i++
	return key, s.eat(':')
}

// number reads a token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// is an integer (no fraction, no exponent).
func (s *scanner) number() (tok []byte, integer, ok bool) {
	s.skipSpace()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i, integer = j, false
	}
	tok, s.i = b[s.i:i], i
	return tok, integer, true
}

// digits returns the index past the run of digits starting at b[i].
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// float reads a number as encoding/json decodes one into a float64: with
// strconv.ParseFloat. Out of range ("1e999") is off the shape, an error
// encoding/json words.
func (s *scanner) float() (float64, bool) {
	tok, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// int32 reads an integer token that fits in an int32.
func (s *scanner) int32() (int32, bool) {
	tok, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var n int64
	for _, c := range tok {
		n = n*10 + int64(c-'0')
		if n > -math.MinInt32 {
			return 0, false
		}
	}
	if neg {
		n = -n
	}
	if n > math.MaxInt32 {
		return 0, false
	}
	return int32(n), true
}

// bool reads a true or false literal. What follows it is the caller's to
// check: "truex" leaves an x where a comma or brace must be.
func (s *scanner) bool() (bool, bool) {
	s.skipSpace()
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}
