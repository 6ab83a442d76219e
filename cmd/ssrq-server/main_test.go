package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-preset", "twitter", "-n", "500", "-addr", ":0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.preset != "twitter" || cfg.n != 500 || cfg.addr != ":0" {
		t.Fatalf("cfg = %+v", cfg)
	}
	for _, bad := range [][]string{{"-bogus"}, {"-parallel", "4"}} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Fatalf("bad flag %v accepted", bad)
		}
	}
}

func TestBuildServerAndServe(t *testing.T) {
	cfg, err := parseFlags([]string{"-preset", "twitter", "-n", "400"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv, ds, cleanup, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if ds.NumUsers() != 400 {
		t.Fatalf("users = %d", ds.NumUsers())
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/query?q=0&k=3")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %v %v", err, resp)
	}
	resp.Body.Close()
}

// TestBuildShardedServer: -shards builds the partitioned engine end to end
// and /stats exposes the per-shard section.
func TestBuildShardedServer(t *testing.T) {
	cfg, err := parseFlags([]string{"-preset", "gowalla", "-n", "400", "-shards", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.shards != 4 {
		t.Fatalf("shards = %d", cfg.shards)
	}
	srv, _, cleanup, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/query?q=0&k=3")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", err, resp)
	}
	var st struct {
		NumShards int `json:"num_shards"`
		Shards    []struct {
			Cells      int `json:"cells"`
			NumLocated int `json:"num_located"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.NumShards != 4 || len(st.Shards) != 4 {
		t.Fatalf("stats shards = %d (%d entries), want 4", st.NumShards, len(st.Shards))
	}

	// An invalid shard count must fail construction, not limp along.
	bad, err := parseFlags([]string{"-preset", "gowalla", "-n", "400", "-shards", "100000"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := buildServer(bad); err == nil {
		t.Fatal("absurd shard count accepted")
	}
}

func TestBuildServerBadDataset(t *testing.T) {
	cfg, err := parseFlags([]string{"-data", "/nonexistent/path.gob"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := buildServer(cfg); err == nil {
		t.Fatal("missing dataset file accepted")
	}
}

// TestDurableLeaderAndFollowerServers drives the new roles end to end:
// a -wal-dir leader journals a write and recovers it on restart; a
// -follower-of replica tails the leader, reports its replication position
// in /stats, and refuses writes.
func TestDurableLeaderAndFollowerServers(t *testing.T) {
	walDir := t.TempDir()
	cfg, err := parseFlags([]string{"-preset", "gowalla", "-n", "300", "-wal-dir", walDir, "-fsync", "off"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, cleanup, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	body := bytes.NewBufferString(`{"id":7,"x":0.125,"y":0.25}`)
	resp, err := http.Post(ts.URL+"/move", "application/json", body)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("move: %v %v", err, resp)
	}
	resp.Body.Close()
	ts.Close()
	cleanup()

	// Restart over the same WAL directory: the move must survive.
	srv, _, cleanup, err = buildServer(cfg)
	if err != nil {
		t.Fatalf("restart with WAL: %v", err)
	}
	defer cleanup()
	ts = httptest.NewServer(srv)
	defer ts.Close()

	resp, err = http.Get(ts.URL + "/user/7")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("user: %v %v", err, resp)
	}
	var user struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&user); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if user.X != 0.125 || user.Y != 0.25 {
		t.Fatalf("recovered location (%v,%v), want (0.125,0.25)", user.X, user.Y)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Durability struct {
			LastSeq uint64 `json:"last_seq"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Durability.LastSeq == 0 {
		t.Fatal("durable leader /stats has no journal position")
	}

	// Follower of the recovered leader.
	fcfg, err := parseFlags([]string{"-preset", "gowalla", "-n", "300", "-follower-of", ts.URL, "-poll-interval", "1ms"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fsrv, _, fcleanup, err := buildServer(fcfg)
	if err != nil {
		t.Fatalf("follower build: %v", err)
	}
	defer fcleanup()
	fts := httptest.NewServer(fsrv)
	defer fts.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(fts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var fst struct {
			Role    string  `json:"role"`
			Applied uint64  `json:"replication_applied_seq"`
			Lag     *uint64 `json:"replication_lag_ops"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&fst); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if fst.Role != "follower" || fst.Lag == nil {
			t.Fatalf("follower /stats missing replication section: %+v", fst)
		}
		if fst.Applied >= st.Durability.LastSeq && *fst.Lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", fst)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err = http.Get(fts.URL + "/user/7")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower user: %v %v", err, resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&user); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if user.X != 0.125 || user.Y != 0.25 {
		t.Fatalf("follower location (%v,%v), want (0.125,0.25)", user.X, user.Y)
	}

	body = bytes.NewBufferString(`{"id":7,"x":0.5,"y":0.5}`)
	resp, err = http.Post(fts.URL+"/move", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower accepted a write: %d", resp.StatusCode)
	}

	// -wal-dir and -follower-of together must be rejected.
	if _, err := parseFlags([]string{"-wal-dir", walDir, "-follower-of", ts.URL}, io.Discard); err == nil {
		t.Fatal("conflicting roles accepted")
	}
}
