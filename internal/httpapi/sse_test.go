package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ssrq"
)

// sseClient wraps one open /subscribe stream.
type sseClient struct {
	resp   *http.Response
	sc     *bufio.Scanner
	cancel context.CancelFunc
}

func openSSE(t *testing.T, base string, user, k int, alpha float64) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	url := fmt.Sprintf("%s/subscribe?user=%d&k=%d&alpha=%g", base, user, k, alpha)
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("subscribe = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("content-type = %q", ct)
	}
	return &sseClient{resp: resp, sc: bufio.NewScanner(resp.Body), cancel: cancel}
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// next reads one complete SSE event (ok=false at stream end).
func (c *sseClient) next(t *testing.T) (event string, delta sseDelta, ok bool) {
	t.Helper()
	var data string
	for c.sc.Scan() {
		line := c.sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			if err := json.Unmarshal([]byte(data), &delta); err != nil {
				t.Fatalf("bad SSE payload %q: %v", data, err)
			}
			return event, delta, true
		}
	}
	return "", sseDelta{}, false
}

// nextWithin reads one event with a deadline, failing the test on timeout.
func (c *sseClient) nextWithin(t *testing.T, d time.Duration) (sseDelta, bool) {
	t.Helper()
	type out struct {
		delta sseDelta
		ok    bool
	}
	ch := make(chan out, 1)
	go func() {
		_, delta, ok := c.next(t)
		ch <- out{delta, ok}
	}()
	select {
	case o := <-ch:
		return o.delta, o.ok
	case <-time.After(d):
		t.Fatalf("no SSE event within %v", d)
		return sseDelta{}, false
	}
}

func sseEngine(t *testing.T, opts *ssrq.Options) *ssrq.Engine {
	t.Helper()
	ds, err := ssrq.Synthesize("twitter", 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ssrq.NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSSEWireFormat: the initial event carries the full result as "added"
// and matches a direct query; a subsequent move produces a well-formed
// incremental delta.
func TestSSEWireFormat(t *testing.T) {
	eng := sseEngine(t, nil)
	defer eng.Close()
	ts := httptest.NewServer(New(eng))
	defer ts.Close()

	const q, k = 0, 5
	c := openSSE(t, ts.URL, q, k, 0.3)
	defer c.close()

	init, ok := c.nextWithin(t, 5*time.Second)
	if !ok {
		t.Fatal("stream ended before the initial event")
	}
	want, err := eng.TopK(q, k, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(init.Added) != len(want.Entries) || len(init.Removed) != 0 || len(init.Rescored) != 0 {
		t.Fatalf("initial event not a pure snapshot: %+v", init)
	}
	for i, e := range init.Added {
		if e.ID != want.Entries[i].ID {
			t.Fatalf("initial event rank %d = user %d, want %d", i, e.ID, want.Entries[i].ID)
		}
	}

	// Teleport the subscriber across the map: every spatial component
	// changes, so a delta must arrive.
	far, okLoc := eng.UserLocation(want.Entries[len(want.Entries)-1].ID)
	if !okLoc {
		t.Fatal("ranked user unlocated")
	}
	if err := eng.MoveUser(q, ssrq.Point{X: far.X + 1, Y: far.Y + 1}); err != nil {
		t.Fatal(err)
	}
	d, ok := c.nextWithin(t, 5*time.Second)
	if !ok {
		t.Fatal("stream ended before the move delta")
	}
	if d.Round <= init.Round {
		t.Fatalf("delta round %d not after initial round %d", d.Round, init.Round)
	}
	if len(d.Added)+len(d.Rescored)+len(d.Removed) == 0 {
		t.Fatalf("empty delta emitted: %+v", d)
	}
}

// TestSSEClientDisconnect: cancelling the request must tear the
// subscription down server-side.
func TestSSEClientDisconnect(t *testing.T) {
	eng := sseEngine(t, nil)
	defer eng.Close()
	ts := httptest.NewServer(New(eng))
	defer ts.Close()

	c := openSSE(t, ts.URL, 0, 5, 0.3)
	if _, ok := c.nextWithin(t, 5*time.Second); !ok {
		t.Fatal("no initial event")
	}
	if got := eng.SubscriptionStats().Active; got != 1 {
		t.Fatalf("active subscriptions = %d, want 1", got)
	}
	c.close()
	deadline := time.Now().Add(5 * time.Second)
	for eng.SubscriptionStats().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription not torn down after client disconnect (active=%d)",
				eng.SubscriptionStats().Active)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSSETeardownOnClose: Engine.Close with live SSE clients must
// terminate every stream and leak no goroutines — at one shard and at several.
func TestSSETeardownOnClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts *ssrq.Options
	}{
		// Names pinned by the tier-1 floor list: "monolithic" is one shard.
		{"monolithic", nil},
		{"sharded", &ssrq.Options{Shards: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			eng := sseEngine(t, tc.opts)
			ts := httptest.NewServer(New(eng))

			clients := make([]*sseClient, 3)
			for i := range clients {
				clients[i] = openSSE(t, ts.URL, i, 5, 0.3)
				if _, ok := clients[i].nextWithin(t, 5*time.Second); !ok {
					t.Fatal("no initial event")
				}
			}
			// Keep the world moving so Close races active evaluation.
			for i := 0; i < 32; i++ {
				p, ok := eng.UserLocation(ssrq.UserID(i % 100))
				if !ok {
					continue
				}
				if err := eng.ApplyUpdatesAsync([]ssrq.Update{{ID: ssrq.UserID(i % 100), To: ssrq.Point{X: p.X * 0.99, Y: p.Y * 0.99}}}); err != nil {
					t.Fatal(err)
				}
			}

			eng.Close()

			// Every stream must end (the handler returns, the server closes
			// the response) within the deadline.
			for i, c := range clients {
				done := make(chan struct{})
				go func(c *sseClient) {
					for {
						if _, _, ok := c.next(t); !ok {
							close(done)
							return
						}
					}
				}(c)
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("stream %d still open after engine Close", i)
				}
			}
			for _, c := range clients {
				c.close()
			}
			ts.Close()

			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				runtime.GC()
				if runtime.NumGoroutine() <= before+2 {
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			t.Fatalf("goroutines did not settle after Close: before=%d now=%d", before, runtime.NumGoroutine())
		})
	}
}

// TestSSEBadRequests: parameter validation surfaces as the same status
// codes the /query endpoint uses — 400 for malformed or out-of-domain
// parameters, 404 for an unknown user — never a half-open stream.
func TestSSEBadRequests(t *testing.T) {
	eng := sseEngine(t, nil)
	defer eng.Close()
	ts := httptest.NewServer(New(eng))
	defer ts.Close()

	for _, c := range []struct {
		path string
		want int
	}{
		{"/subscribe", http.StatusBadRequest},           // missing user
		{"/subscribe?user=999999", http.StatusNotFound}, // out of range
		{"/subscribe?user=0&alpha=1.5", http.StatusBadRequest},
		{"/subscribe?user=0&alpha=NaN", http.StatusBadRequest},
		{"/subscribe?user=0&k=0", http.StatusBadRequest},
		{"/subscribe?user=0&alpha=notafloat", http.StatusBadRequest},
		{"/subscribe?user=0&labels=64", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s = %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
}

// TestSSEHeartbeat: a subscriber whose result never changes still receives
// periodic ": ping" comment lines, so the stream is distinguishable from a
// dead connection. The world stays frozen after the initial event — without
// the heartbeat this client would read zero bytes forever.
func TestSSEHeartbeat(t *testing.T) {
	eng := sseEngine(t, nil)
	defer eng.Close()
	srv := New(eng)
	srv.heartbeat = 50 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := openSSE(t, ts.URL, 0, 5, 0.3)
	defer c.close()
	if _, ok := c.nextWithin(t, 5*time.Second); !ok {
		t.Fatal("no initial event")
	}

	// Read raw lines off the idle stream: a comment line must arrive.
	lines := make(chan string, 16)
	go func() {
		for c.sc.Scan() {
			lines <- c.sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream ended before any heartbeat")
			}
			if strings.HasPrefix(line, ":") {
				return // heartbeat comment observed
			}
			// Blank separators or stray events are fine; keep reading.
		case <-deadline:
			t.Fatal("no heartbeat comment within 5s on an idle stream")
		}
	}
}
