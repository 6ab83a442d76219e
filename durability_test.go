package ssrq

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ssrq/internal/graph"
	"ssrq/internal/wal"
)

// TestingWAL exposes the underlying log to crash tests (nil when
// non-durable).
func (e *Engine) TestingWAL() *wal.Log { return e.log }

// Differential crash tests: churn an engine, hard-stop its WAL mid-record
// (the in-process seam; see crash_kill_test.go for the real kill -9
// variant), recover, and require the recovered world and query results to
// exactly match an uninterrupted twin that applied the same logical prefix.

// crashOp is one deterministic driver operation, replayable on any engine.
type crashOp struct {
	kind int // 0 move, 1 remove location, 2 edge upsert, 3 edge remove
	id   UserID
	p    Point
	u, v UserID
	w    float64
}

func (op crashOp) apply(e *Engine) error {
	switch op.kind {
	case 0:
		return e.MoveUser(op.id, op.p)
	case 1:
		return e.RemoveUserLocation(op.id)
	case 2:
		return e.AddFriend(op.u, op.v, op.w)
	default:
		return e.RemoveFriend(op.u, op.v)
	}
}

// genCrashOps builds a deterministic mixed op stream over d (raw
// coordinates/weights, dense edge churn over a small pair population so
// upserts and removes actually collide).
func genCrashOps(d *Dataset, n int, seed int64) []crashOp {
	rnd := rand.New(rand.NewSource(seed))
	norm := d.Norms().Spatial
	users := d.NumUsers()
	edgePop := min(60, users)
	ops := make([]crashOp, 0, n)
	for i := 0; i < n; i++ {
		switch r := rnd.Float64(); {
		case r < 0.65:
			ops = append(ops, crashOp{
				kind: 0,
				id:   UserID(rnd.Intn(users)),
				p:    Point{X: rnd.Float64() * norm, Y: rnd.Float64() * norm},
			})
		case r < 0.75:
			ops = append(ops, crashOp{kind: 1, id: UserID(rnd.Intn(users))})
		case r < 0.9:
			u := UserID(rnd.Intn(edgePop))
			v := UserID(rnd.Intn(edgePop))
			if u == v {
				v = (v + 1) % UserID(edgePop)
			}
			ops = append(ops, crashOp{kind: 2, u: u, v: v, w: 0.1 + rnd.Float64()})
		default:
			u := UserID(rnd.Intn(edgePop))
			v := UserID(rnd.Intn(edgePop))
			if u == v {
				v = (v + 1) % UserID(edgePop)
			}
			ops = append(ops, crashOp{kind: 3, u: u, v: v})
		}
	}
	return ops
}

var crashAlgos = Algorithms()

// requireSameWorld asserts bit-identical locations and social graphs.
func requireSameWorld(t *testing.T, got, want *Engine) {
	t.Helper()
	n := got.d.NumUsers()
	for id := 0; id < n; id++ {
		pg, okg := got.eng.UserLocation(int32(id))
		pw, okw := want.eng.UserLocation(int32(id))
		if okg != okw || (okg && pg != pw) {
			t.Fatalf("user %d: recovered location (%v,%v) != twin (%v,%v)", id, pg, okg, pw, okw)
		}
	}
	gg, gw := got.eng.LiveSocialGraph(), want.eng.LiveSocialGraph()
	if gg.NumEdges() != gw.NumEdges() {
		t.Fatalf("edge count: recovered %d != twin %d", gg.NumEdges(), gw.NumEdges())
	}
	for u := 0; u < n; u++ {
		vs, ws := gg.Neighbors(graph.VertexID(u))
		for j, v := range vs {
			if w, ok := gw.EdgeWeight(graph.VertexID(u), v); !ok || w != ws[j] {
				t.Fatalf("edge (%d,%d): recovered weight %v, twin (%v,%v)", u, v, ws[j], w, ok)
			}
		}
	}
}

// requireSameResults asserts exact query equivalence across algorithms.
func requireSameResults(t *testing.T, got, want *Engine, seed int64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	n := got.d.NumUsers()
	var queried int
	for attempts := 0; queried < 8 && attempts < 10*n; attempts++ {
		q := UserID(rnd.Intn(n))
		if _, ok := got.eng.UserLocation(q); !ok {
			continue
		}
		queried++
		for _, algo := range crashAlgos {
			rg, eg := got.TopKWith(algo, q, 10, 0.4)
			rw, ew := want.TopKWith(algo, q, 10, 0.4)
			if (eg == nil) != (ew == nil) {
				t.Fatalf("algo %v q=%d: recovered err=%v twin err=%v", algo, q, eg, ew)
			}
			if eg != nil {
				continue
			}
			if len(rg.Entries) != len(rw.Entries) {
				t.Fatalf("algo %v q=%d: %d vs %d entries", algo, q, len(rg.Entries), len(rw.Entries))
			}
			for i := range rg.Entries {
				a, b := rg.Entries[i], rw.Entries[i]
				if math.Abs(a.F-b.F) > 1e-12 {
					t.Fatalf("algo %v q=%d rank %d: F %v vs %v", algo, q, i, a.F, b.F)
				}
				if a.ID != b.ID && math.Abs(a.F-b.F) > 1e-12 {
					t.Fatalf("algo %v q=%d rank %d: ID %d vs %d", algo, q, i, a.ID, b.ID)
				}
			}
		}
	}
	if queried == 0 {
		t.Fatal("no located query users found")
	}
}

// TestCrashRecoveryDifferentialSync drives synchronous ops (one WAL record
// each), tears the log mid-record at an arbitrary byte, recovers, and
// compares against a twin that applied exactly the recovered prefix of the
// driver stream — at one shard and at several.
func TestCrashRecoveryDifferentialSync(t *testing.T) {
	// The subtest names are pinned by the tier-1 floor list and predate the
	// single engine: "monolith" is the default shard count (one shard),
	// "sharded" several — one implementation either way.
	for _, tc := range []struct {
		name   string
		shards int
	}{{"monolith", 0}, {"sharded", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := Synthesize("gowalla", 400, 42)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			opts := &Options{Shards: tc.shards, Durability: &DurabilityOptions{Dir: dir, Fsync: "off"}}
			eng, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}

			ops := genCrashOps(ds, 600, 7)
			const before = 400 // ops applied before the seam arms
			for _, op := range ops[:before] {
				if err := op.apply(eng); err != nil {
					t.Fatal(err)
				}
			}
			// Arm the seam at an arbitrary byte offset into the remaining
			// stream: some op's record tears mid-write, everything after
			// vanishes — the page-cache suffix a dead process loses.
			eng.TestingWAL().TestingLimitBytes(int64(rand.New(rand.NewSource(3)).Intn(2000)))
			for _, op := range ops[before:] {
				if err := op.apply(eng); err != nil {
					t.Fatal(err)
				}
			}
			if !eng.TestingWAL().Crashed() {
				t.Fatal("crash seam never tripped")
			}
			eng.Close() // the crashed log ignores the shutdown's writes

			rec, info, err := OpenOrRecover(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			applied := int(info.LastSeq)
			if applied < before || applied >= len(ops) {
				t.Fatalf("recovered %d ops, want within [%d,%d)", applied, before, len(ops))
			}
			if info.TruncatedBytes == 0 {
				t.Fatal("expected a torn tail")
			}

			twin, err := NewEngine(ds, &Options{Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			// Sync ops journal exactly one record each, so log position ==
			// driver prefix length.
			for _, op := range ops[:applied] {
				if err := op.apply(twin); err != nil {
					t.Fatal(err)
				}
			}
			requireSameWorld(t, rec, twin)
			requireSameResults(t, rec, twin, 99)
		})
	}
}

// TestCrashRecoveryAsyncChurn mixes async batches of location ops with
// sync edge and location ops on the engine's one queue (so the writer
// journals units that join several callers' batches), crashes, recovers,
// and compares against a twin built by replaying the recovered WAL itself —
// the log must be a faithful, replayable history of whatever was applied.
func TestCrashRecoveryAsyncChurn(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"monolith", 0}, {"sharded", 3}} { // names: see TestCrashRecoveryDifferentialSync
		t.Run(tc.name, func(t *testing.T) {
			ds, err := Synthesize("gowalla", 400, 43)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			opts := &Options{Shards: tc.shards, Durability: &DurabilityOptions{Dir: dir, Fsync: "off"}}
			eng, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}

			ops := genCrashOps(ds, 800, 11)
			// Even-indexed location ops gather into async batches of up to
			// eight, sent before the next sync op.
			var batch []Update
			send := func() {
				if len(batch) > 0 {
					if err := eng.ApplyUpdatesAsync(batch); err != nil {
						t.Fatal(err)
					}
					batch = batch[:0]
				}
			}
			for i, op := range ops {
				switch {
				case op.kind == 0 && i%2 == 0:
					batch = append(batch, Update{ID: op.id, To: op.p})
				case op.kind == 1 && i%2 == 0:
					batch = append(batch, Update{ID: op.id, Remove: true})
				default:
					send()
					if err := op.apply(eng); err != nil {
						t.Fatal(err)
					}
				}
				if len(batch) == 8 {
					send()
				}
				if i == 500 {
					send()
					eng.Flush()
					eng.TestingWAL().TestingLimitBytes(1500)
				}
			}
			send()
			eng.Flush()
			if !eng.TestingWAL().Crashed() {
				t.Fatal("crash seam never tripped")
			}
			floor := eng.WALDurableSeq()
			eng.Close()

			rec, info, err := OpenOrRecover(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if info.LastSeq < floor {
				t.Fatalf("recovered seq %d below pre-crash floor %d", info.LastSeq, floor)
			}
			// The twin replays the recovered journal: recovery and replay
			// must converge on the same world.
			recs, last, err := rec.WALRecords(1, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			if last != info.LastSeq || len(recs) != int(last) {
				t.Fatalf("journal read %d recs last=%d, recovery says %d", len(recs), last, info.LastSeq)
			}
			twin, err := NewEngine(ds, &Options{Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			if err := twin.ApplyWALRecords(recs); err != nil {
				t.Fatal(err)
			}
			requireSameWorld(t, rec, twin)
			requireSameResults(t, rec, twin, 17)
		})
	}
}

// TestCheckpointRecoveryEquivalence exercises the checkpoint path: churn
// with periodic background checkpoints (history retained), crash, recover
// (checkpoint + tail), and require equivalence with a twin that replayed
// the FULL journal from sequence 1 — checkpoint-based recovery must be
// indistinguishable from full replay.
func TestCheckpointRecoveryEquivalence(t *testing.T) {
	ds, err := Synthesize("gowalla", 400, 44)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := &Options{Durability: &DurabilityOptions{
		Dir: dir, Fsync: "off", CheckpointEveryOps: 150, KeepSegments: true,
	}}
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops := genCrashOps(ds, 700, 13)
	for i, op := range ops {
		if err := op.apply(eng); err != nil {
			t.Fatal(err)
		}
		if i == 600 {
			// Also take an explicit checkpoint mid-stream.
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			eng.TestingWAL().TestingLimitBytes(900)
		}
	}
	eng.Close()

	rec, info, err := OpenOrRecover(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.CheckpointSeq == 0 {
		t.Fatal("no checkpoint was used — test exercised nothing")
	}
	if info.CheckpointSeq > info.LastSeq {
		t.Fatalf("checkpoint %d beyond last seq %d", info.CheckpointSeq, info.LastSeq)
	}

	recs, last, err := rec.WALRecords(1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if last != info.LastSeq {
		t.Fatalf("full journal last=%d, recovery says %d", last, info.LastSeq)
	}
	twin, err := NewEngine(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if err := twin.ApplyWALRecords(recs); err != nil {
		t.Fatal(err)
	}
	requireSameWorld(t, rec, twin)
	requireSameResults(t, rec, twin, 23)
}

// TestRecoveryAppliesCheckpointAsOneBatch pins that restart replays a
// checkpoint as one batch: a checkpoint of more than 4 096 edge ops advances
// the social epoch exactly once, so a landmark table it rewrites wholesale is
// recomputed once at the end of the batch instead of repaired op by op across
// several epochs.
func TestRecoveryAppliesCheckpointAsOneBatch(t *testing.T) {
	ds, err := Synthesize("gowalla", 1000, 47)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Durability: &DurabilityOptions{Dir: t.TempDir(), Fsync: "off"}}
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// 5 000 distinct pairs: new edges and reweights of existing ones alike
	// differ from the construction graph, so each is one checkpoint record.
	rnd := rand.New(rand.NewSource(47))
	n := ds.NumUsers()
	var ups []EdgeUpdate
	for u := 0; u < n; u++ {
		for d := 1; d <= 5; d++ {
			ups = append(ups, EdgeUpdate{U: UserID(u), V: UserID((u + d) % n), Weight: 0.1 + rnd.Float64()})
		}
	}
	if err := eng.ApplyEdgeUpdates(ups); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	rec, info, err := OpenOrRecover(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.CheckpointOps <= 4096 || info.ReplayedOps != 0 {
		t.Fatalf("recovered %d checkpoint ops + %d tail ops, want > 4096 + 0",
			info.CheckpointOps, info.ReplayedOps)
	}
	if got := rec.UpdateStats().SocialEpoch; got != 1 {
		t.Fatalf("checkpoint replay published %d social epochs, want 1", got)
	}
	requireSameWorld(t, rec, eng)
}

// TestCheckpointCutsSerialize is the regression for the checkpoint temp-path
// collision: two cuts at one log position share the temp file name, so when
// an explicit Checkpoint raced the background cut (or another explicit one)
// the loser's rename failed with "no such file or directory". The first cut
// is parked between its temp write and its rename while a second one starts.
// Unserialized, the second reaches the same point while the first is still
// parked — observed as an event, so that failure needs no timing; serialized,
// it cannot, which only a bounded wait can conclude.
func TestCheckpointCutsSerialize(t *testing.T) {
	ds, err := Synthesize("gowalla", 200, 46)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, &Options{Durability: &DurabilityOptions{Dir: t.TempDir(), Fsync: "off"}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, op := range genCrashOps(ds, 50, 14) {
		if err := op.apply(eng); err != nil {
			t.Fatal(err)
		}
	}

	var cuts atomic.Int32
	overlap := make(chan struct{}, 1)
	second := make(chan error, 1)
	eng.TestingWAL().TestingBeforeCheckpointInstall(func() {
		if cuts.Add(1) > 1 {
			select {
			case overlap <- struct{}{}:
			default:
			}
			return
		}
		go func() { second <- eng.Checkpoint() }()
		select {
		case <-overlap:
			t.Error("a second cut wrote its temp file while the first was between temp write and rename")
		case <-time.After(250 * time.Millisecond):
		}
	})
	if err := eng.Checkpoint(); err != nil {
		t.Errorf("first cut: %v", err)
	}
	if err := <-second; err != nil {
		t.Errorf("second cut: %v", err)
	}
	if got := cuts.Load(); got != 2 {
		t.Fatalf("%d cuts reached the install point, want 2", got)
	}
}

// TestRecoveredEngineServesSubscriptions verifies the subscription layer
// composes with recovery: a recovered engine accepts standing queries and
// pushes deltas for post-recovery churn.
func TestRecoveredEngineServesSubscriptions(t *testing.T) {
	ds, err := Synthesize("gowalla", 300, 45)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := &Options{Durability: &DurabilityOptions{Dir: dir, Fsync: "off"}}
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range genCrashOps(ds, 200, 5) {
		if err := op.apply(eng); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()

	rec, _, err := OpenOrRecover(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	var q UserID = -1
	for v := 0; v < ds.NumUsers(); v++ {
		if _, ok := rec.eng.UserLocation(UserID(v)); ok {
			q = UserID(v)
			break
		}
	}
	if q < 0 {
		t.Fatal("no located user")
	}
	s, err := rec.Subscribe(q, 5, 0.4)
	if err != nil {
		t.Fatalf("subscribe on recovered engine: %v", err)
	}
	res := s.Result()
	want, err := rec.TopKWith(BruteForce, q, 5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want.Entries) {
		t.Fatalf("subscription %d entries, brute force %d", len(res), len(want.Entries))
	}
	for i := range res {
		if math.Abs(res[i].F-want.Entries[i].F) > 1e-9 {
			t.Fatalf("rank %d: %v vs %v", i, res[i].F, want.Entries[i].F)
		}
	}
}
