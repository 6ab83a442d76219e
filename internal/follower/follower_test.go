package follower

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssrq"
	"ssrq/internal/httpapi"
)

// driveChurn applies n deterministic synchronous mutations to e.
func driveChurn(t *testing.T, e *ssrq.Engine, d *ssrq.Dataset, n int, seed int64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	norm := d.Norms().Spatial
	users := d.NumUsers()
	for i := 0; i < n; i++ {
		var err error
		switch r := rnd.Float64(); {
		case r < 0.65:
			err = e.MoveUser(int32(rnd.Intn(users)),
				ssrq.Point{X: rnd.Float64() * norm, Y: rnd.Float64() * norm})
		case r < 0.75:
			err = e.RemoveUserLocation(int32(rnd.Intn(users)))
		case r < 0.9:
			u, v := int32(rnd.Intn(40)), int32(rnd.Intn(40))
			if u == v {
				v = (v + 1) % 40
			}
			err = e.AddFriend(u, v, 0.1+rnd.Float64())
		default:
			u, v := int32(rnd.Intn(40)), int32(rnd.Intn(40))
			if u == v {
				v = (v + 1) % 40
			}
			err = e.RemoveFriend(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// requireSameState asserts identical user locations and close query results.
func requireSameState(t *testing.T, d *ssrq.Dataset, a, b *ssrq.Engine) {
	t.Helper()
	for id := 0; id < d.NumUsers(); id++ {
		pa, oka := a.UserLocation(int32(id))
		pb, okb := b.UserLocation(int32(id))
		if oka != okb || (oka && pa != pb) {
			t.Fatalf("user %d: (%v,%v) vs (%v,%v)", id, pa, oka, pb, okb)
		}
	}
	var queried int
	for id := 0; id < d.NumUsers() && queried < 5; id++ {
		if _, ok := a.UserLocation(int32(id)); !ok {
			continue
		}
		queried++
		ra, ea := a.TopKWith(ssrq.TSA, int32(id), 10, 0.4)
		rb, eb := b.TopKWith(ssrq.TSA, int32(id), 10, 0.4)
		if ea != nil || eb != nil {
			t.Fatalf("query %d: %v / %v", id, ea, eb)
		}
		if len(ra.Entries) != len(rb.Entries) {
			t.Fatalf("query %d: %d vs %d entries", id, len(ra.Entries), len(rb.Entries))
		}
		for i := range ra.Entries {
			if math.Abs(ra.Entries[i].F-rb.Entries[i].F) > 1e-12 {
				t.Fatalf("query %d rank %d: F %v vs %v", id, i, ra.Entries[i].F, rb.Entries[i].F)
			}
		}
	}
	if queried == 0 {
		t.Fatal("no located users to query")
	}
}

// awaitCaughtUp waits until the follower's applied position reaches seq.
func awaitCaughtUp(t *testing.T, f *Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := f.Stats()
		if st.AppliedSeq >= seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d (leader %d, err %q), want %d",
				st.AppliedSeq, st.LeaderSeq, st.LastError, seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFollowerTailsLeaderLive(t *testing.T) {
	ds, err := ssrq.Synthesize("gowalla", 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := ssrq.NewEngine(ds, &ssrq.Options{
		Durability: &ssrq.DurabilityOptions{Dir: t.TempDir(), Fsync: "off", KeepSegments: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	driveChurn(t, leader, ds, 150, 7)

	// The follower bootstraps mid-history and tails concurrently with
	// further leader churn.
	f, err := New(ds, EngineSource{Leader: leader}, &Options{PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	driveChurn(t, leader, ds, 150, 8)

	awaitCaughtUp(t, f, leader.WALLastSeq())
	st := f.Stats()
	if st.LagOps != 0 {
		t.Fatalf("caught-up follower reports lag %d", st.LagOps)
	}
	if st.LastError != "" || st.ResyncRequired {
		t.Fatalf("unhealthy follower: %+v", st)
	}
	requireSameState(t, ds, leader, f.Engine())
}

// TestFollowerPrefixConsistency single-steps replication in small batches
// and checks, at an intermediate position A, that the replica's world is
// exactly the leader's history [1..A] — not a reordered or gappy subset.
func TestFollowerPrefixConsistency(t *testing.T) {
	ds, err := ssrq.Synthesize("gowalla", 300, 43)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := ssrq.NewEngine(ds, &ssrq.Options{
		Durability: &ssrq.DurabilityOptions{Dir: t.TempDir(), Fsync: "off", KeepSegments: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	driveChurn(t, leader, ds, 400, 9)
	last := leader.WALLastSeq()

	f, err := New(ds, EngineSource{Leader: leader}, &Options{Manual: true, BatchMax: 37})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prev := f.Stats().AppliedSeq
	for i := 0; f.Stats().AppliedSeq < last; i++ {
		n, err := f.Pull()
		if err != nil {
			t.Fatal(err)
		}
		st := f.Stats()
		if st.AppliedSeq != prev+uint64(n) {
			t.Fatalf("pull %d: applied jumped %d → %d over %d records", i, prev, st.AppliedSeq, n)
		}
		prev = st.AppliedSeq
		if st.LagOps != last-st.AppliedSeq {
			t.Fatalf("pull %d: lag %d, want %d", i, st.LagOps, last-st.AppliedSeq)
		}
		// Midway: the replica must equal an engine built from exactly the
		// prefix [1..applied] of the leader's journal.
		if st.AppliedSeq >= last/2 && st.AppliedSeq < last/2+37 {
			recs, _, err := leader.WALRecords(1, int(st.AppliedSeq))
			if err != nil {
				t.Fatal(err)
			}
			twin, err := ssrq.NewEngine(ds, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := twin.ApplyWALRecords(recs); err != nil {
				t.Fatal(err)
			}
			requireSameState(t, ds, twin, f.Engine())
			twin.Close()
		}
	}
	requireSameState(t, ds, leader, f.Engine())
}

// TestFollowerBootstrapsFromCheckpoint verifies a replica starting against
// a pruned leader journal (checkpoint taken, history compacted) converges,
// and that falling behind a compaction is reported as ResyncRequired.
func TestFollowerBootstrapsFromCheckpoint(t *testing.T) {
	ds, err := ssrq.Synthesize("gowalla", 300, 44)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := ssrq.NewEngine(ds, &ssrq.Options{
		Durability: &ssrq.DurabilityOptions{Dir: t.TempDir(), Fsync: "off"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()

	// A follower attached to the empty journal, left behind on purpose.
	stale, err := New(ds, EngineSource{Leader: leader}, &Options{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()

	driveChurn(t, leader, ds, 300, 11)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	driveChurn(t, leader, ds, 100, 12)

	// Fresh follower: bootstrap = checkpoint state, then the tail.
	f, err := New(ds, EngineSource{Leader: leader}, &Options{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Stats().AppliedSeq == 0 {
		t.Fatal("bootstrap ignored the checkpoint")
	}
	for f.Stats().AppliedSeq < leader.WALLastSeq() {
		if _, err := f.Pull(); err != nil {
			t.Fatal(err)
		}
	}
	requireSameState(t, ds, leader, f.Engine())

	// The stale follower's position predates the pruned history.
	if _, err := stale.Pull(); err == nil {
		t.Fatal("stale follower pulled through a compaction")
	}
	if !stale.Stats().ResyncRequired {
		t.Fatal("compacted-away follower not flagged ResyncRequired")
	}
}

// TestFollowerTailsWALDirectory: a follower on the shared-disk transport
// (FileSource) reads a leader's WAL directory after the leader restarted on
// it (checkpoint plus tail), and must finish its tail with zero lag in the
// recovered leader's state.
func TestFollowerTailsWALDirectory(t *testing.T) {
	ds, err := ssrq.Synthesize("gowalla", 300, 46)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := &ssrq.Options{Durability: &ssrq.DurabilityOptions{Dir: dir, Fsync: "off", KeepSegments: true}}
	leader, err := ssrq.NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	driveChurn(t, leader, ds, 300, 13)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	driveChurn(t, leader, ds, 300, 14)
	leader.Close()

	rec, info, err := ssrq.OpenOrRecover(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.CheckpointSeq == 0 || info.ReplayedOps == 0 {
		t.Fatalf("restart did not go through checkpoint plus tail: %+v", info)
	}
	f, err := New(ds, FileSource{Dir: dir}, &Options{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for f.Stats().AppliedSeq < rec.WALLastSeq() {
		n, err := f.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("file follower stalled at seq %d of %d", f.Stats().AppliedSeq, rec.WALLastSeq())
		}
	}
	if st := f.Stats(); st.LagOps != 0 || st.LastError != "" {
		t.Fatalf("file follower finished unhealthy: %+v", st)
	}
	requireSameState(t, ds, rec, f.Engine())
}

func TestFollowerPromoteServesAndAcceptsWrites(t *testing.T) {
	ds, err := ssrq.Synthesize("gowalla", 300, 45)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := ssrq.NewEngine(ds, &ssrq.Options{
		Durability: &ssrq.DurabilityOptions{Dir: t.TempDir(), Fsync: "off", KeepSegments: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveChurn(t, leader, ds, 200, 13)
	f, err := New(ds, EngineSource{Leader: leader}, &Options{PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	awaitCaughtUp(t, f, leader.WALLastSeq())
	leader.Close()

	promoted := f.Promote()
	defer promoted.Close()
	f.Close() // no-op after promotion: the engine stays alive

	// The promoted engine serves the replicated state and accepts writes.
	var q int32 = -1
	for id := 0; id < ds.NumUsers(); id++ {
		if _, ok := promoted.UserLocation(int32(id)); ok {
			q = int32(id)
			break
		}
	}
	if q < 0 {
		t.Fatal("no located user on promoted follower")
	}
	if _, err := promoted.TopKWith(ssrq.TSA, q, 10, 0.4); err != nil {
		t.Fatalf("query on promoted follower: %v", err)
	}
	norm := ds.Norms().Spatial
	if err := promoted.MoveUser(q, ssrq.Point{X: 0.5 * norm, Y: 0.5 * norm}); err != nil {
		t.Fatalf("write on promoted follower: %v", err)
	}
	if _, err := promoted.Subscribe(q, 5, 0.4); err != nil {
		t.Fatalf("subscribe on promoted follower: %v", err)
	}
}

// TestFollowerOverHTTP runs the whole replication path over the wire:
// durable leader behind httpapi, HTTPSource follower, follower-mode stats
// and write rejection on the replica's own server.
func TestFollowerOverHTTP(t *testing.T) {
	ds, err := ssrq.Synthesize("gowalla", 300, 46)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := ssrq.NewEngine(ds, &ssrq.Options{
		Durability: &ssrq.DurabilityOptions{Dir: t.TempDir(), Fsync: "off", KeepSegments: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	driveChurn(t, leader, ds, 120, 17)
	srv := httptest.NewServer(httpapi.New(leader))
	defer srv.Close()

	f, err := New(ds, HTTPSource{BaseURL: srv.URL}, &Options{PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	driveChurn(t, leader, ds, 120, 18)
	awaitCaughtUp(t, f, leader.WALLastSeq())
	requireSameState(t, ds, leader, f.Engine())

	// The leader's /stats carries the durability section.
	var leaderStats map[string]any
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&leaderStats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // errok
	dur, ok := leaderStats["durability"].(map[string]any)
	if !ok {
		t.Fatalf("leader /stats missing durability section: %v", leaderStats["durability"])
	}
	if dur["last_seq"].(float64) != float64(leader.WALLastSeq()) {
		t.Fatalf("durability.last_seq = %v, leader at %d", dur["last_seq"], leader.WALLastSeq())
	}

	// A server over the replica reports replication position and refuses
	// writes.
	fsrv := httpapi.New(f.Engine())
	fsrv.SetFollower(func() (uint64, uint64) {
		st := f.Stats()
		return st.AppliedSeq, st.LeaderSeq
	})
	frontend := httptest.NewServer(fsrv)
	defer frontend.Close()

	var fstats map[string]any
	resp, err = http.Get(frontend.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fstats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // errok
	if fstats["role"] != "follower" {
		t.Fatalf("follower /stats role = %v", fstats["role"])
	}
	lag, ok := fstats["replication_lag_ops"].(float64)
	if !ok {
		t.Fatal("follower /stats missing replication_lag_ops")
	}
	if lag != 0 {
		t.Fatalf("caught-up follower /stats lag = %v", lag)
	}
	if fstats["replication_applied_seq"].(float64) != float64(leader.WALLastSeq()) {
		t.Fatalf("replication_applied_seq = %v, want %d", fstats["replication_applied_seq"], leader.WALLastSeq())
	}

	wresp, err := http.Post(frontend.URL+"/move", "application/json",
		strings.NewReader(`{"id":1,"x":0.5,"y":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close() // errok
	if wresp.StatusCode != http.StatusForbidden {
		t.Fatalf("mutation on follower returned %d, want 403", wresp.StatusCode)
	}
	// Queries still served.
	qresp, err := http.Get(frontend.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close() // errok
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("read on follower returned %d", qresp.StatusCode)
	}
}
