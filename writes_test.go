package ssrq

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssrq/internal/aggindex"
	"ssrq/internal/core"
	"ssrq/internal/oplog"
)

// The one write path, pinned from outside: every write is a batch on the
// engine's one queue (DESIGN.md §5.1).

// Single-op forms of the asynchronous batch calls.

func moveUserAsync(e *Engine, id UserID, to Point) error {
	return e.ApplyUpdatesAsync([]Update{{ID: id, To: to}})
}

func removeUserLocationAsync(e *Engine, id UserID) error {
	return e.ApplyUpdatesAsync([]Update{{ID: id, Remove: true}})
}

func addFriendAsync(e *Engine, u, v UserID, w float64) error {
	return e.ApplyEdgeUpdatesAsync([]EdgeUpdate{{U: u, V: v, Weight: w}})
}

func removeFriendAsync(e *Engine, u, v UserID) error {
	return e.ApplyEdgeUpdatesAsync([]EdgeUpdate{{U: u, V: v, Remove: true}})
}

// TestWriteAfterCloseRefused: after Close, every kind of write — sync or
// async, moves or edges, one op or many, journal records — returns
// ErrClosed and changes nothing, the log records no failed append, and
// recovery from the directory is exactly the live world.
func TestWriteAfterCloseRefused(t *testing.T) {
	ds, err := Synthesize("twitter", 300, 63) // every user located
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Durability: &DurabilityOptions{Dir: t.TempDir(), Fsync: "batch"}}
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	home, _ := ds.Location(8)
	if err := eng.MoveUser(7, home); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFriend(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	at, _ := eng.UserLocation(7)

	away, _ := ds.Location(9)
	rec := oplog.FromOps([]core.Update{{ID: 7, To: Point{X: 0.5, Y: 0.5}}})
	epoch, edges := eng.UpdateStats().Epoch, eng.DatasetStats().NumEdges
	for name, write := range map[string]func() error{
		"MoveUser":              func() error { return eng.MoveUser(7, away) },
		"RemoveUserLocation":    func() error { return eng.RemoveUserLocation(7) },
		"ApplyUpdates":          func() error { return eng.ApplyUpdates([]Update{{ID: 7, To: away}, {ID: 9, Remove: true}}) },
		"ApplyUpdatesAsync":     func() error { return eng.ApplyUpdatesAsync([]Update{{ID: 7, To: away}}) },
		"AddFriend":             func() error { return eng.AddFriend(3, 4, 5) },
		"RemoveFriend":          func() error { return eng.RemoveFriend(1, 2) },
		"ApplyEdgeUpdates":      func() error { return eng.ApplyEdgeUpdates([]EdgeUpdate{{U: 3, V: 4, Weight: 5}}) },
		"ApplyEdgeUpdatesAsync": func() error { return eng.ApplyEdgeUpdatesAsync([]EdgeUpdate{{U: 1, V: 2, Remove: true}}) },
		"ApplyWALRecords":       func() error { return eng.ApplyWALRecords(rec) },
	} {
		if err := write(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", name, err)
		}
	}
	eng.Flush() // a barrier after Close returns at once
	if p, ok := eng.UserLocation(7); !ok || p != at {
		t.Fatalf("user 7 at (%v, %v) after refused writes, want %v", p, ok, at)
	}
	if st := eng.UpdateStats(); st.Epoch != epoch || eng.DatasetStats().NumEdges != edges {
		t.Fatalf("refused writes published: epoch %d -> %d, edges %d -> %d", epoch, st.Epoch, edges, eng.DatasetStats().NumEdges)
	}
	if n := eng.DurabilityStats().AppendErrors; n != 0 {
		t.Fatalf("%d append errors: a refused write reached the log", n)
	}

	recovered, _, err := OpenOrRecover(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	requireSameWorld(t, recovered, eng)
}

// TestFailedOpenLeavesNoWriter: an OpenOrRecover that fails after the
// engine is built (here on a bad fsync policy) stops the engine's writer
// goroutine before it returns.
func TestFailedOpenLeavesNoWriter(t *testing.T) {
	ds, err := Synthesize("twitter", 200, 65)
	if err != nil {
		t.Fatal(err)
	}
	before := writerGoroutines()
	for i := 0; i < 5; i++ {
		if _, _, err := OpenOrRecover(ds, &Options{Durability: &DurabilityOptions{Dir: t.TempDir(), Fsync: "sometimes"}}); err == nil {
			t.Fatal("OpenOrRecover accepted fsync policy \"sometimes\"")
		}
	}
	if after := writerGoroutines(); after > before {
		t.Fatalf("%d writer goroutines before the failed opens, %d after", before, after)
	}
}

// writerGoroutines counts the goroutines running an engine's writer loop.
func writerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("ssrq/internal/shard.(*Engine).write("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestConcurrentWritersShareEpochs: eight goroutines make single-op
// synchronous MoveUser calls on a durable engine. They share the writer's
// units — fewer published batches than ops — and every acknowledgement is
// durable: the WAL crash seam trips midway, and after recovery every move
// acknowledged before it tripped is in the recovered world.
//
// The epoch callback parks the writer on its first unit until every writer's
// first op is in that unit or queued behind it, so at least one unit is
// shared whatever the scheduler does.
func TestConcurrentWritersShareEpochs(t *testing.T) {
	ds, err := Synthesize("twitter", 1000, 64) // every user located
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Durability: &DurabilityOptions{Dir: t.TempDir(), Fsync: "batch"}}
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var parked sync.Once
	var parkedOps atomic.Int64
	eng.eng.OnEpoch(func(d aggindex.EpochDelta) {
		parked.Do(func() {
			parkedOps.Store(int64(len(d.Moved)))
			<-gate
		})
	})

	const writers, each = 8, 100
	type move struct {
		id UserID
		to Point
	}
	acked := make([][]move, writers)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Every op moves a user of its own, onto another user's spot.
				id := UserID(w*each + i)
				to, _ := ds.Location(UserID((int(id)*37 + 500) % ds.NumUsers()))
				if err := eng.MoveUser(id, to); err != nil {
					t.Error(err)
					return
				}
				// Acknowledged with the seam not yet tripped: the whole unit
				// reached the file and was fsynced.
				if !eng.TestingWAL().Crashed() {
					acked[w] = append(acked[w], move{id, to})
				}
				if sent.Add(1) == writers*each/2 {
					eng.TestingWAL().TestingLimitBytes(2048)
				}
			}
		}(w)
	}
	for deadline := time.Now().Add(30 * time.Second); parkedOps.Load()+eng.UpdateStats().PendingUpdates < writers; {
		if time.Now().After(deadline) {
			t.Fatal("the writers never queued behind the parked unit")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	st := eng.UpdateStats()
	if st.AppliedUpdates != writers*each || st.AppliedBatches >= st.AppliedUpdates {
		t.Fatalf("%d ops applied in %d batches: want all %d, sharing batches", st.AppliedUpdates, st.AppliedBatches, writers*each)
	}
	t.Logf("%d single-op writes applied in %d batches", st.AppliedUpdates, st.AppliedBatches)
	if !eng.TestingWAL().Crashed() {
		t.Fatal("crash seam never tripped")
	}
	eng.Close()

	rec, _, err := OpenOrRecover(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	n := 0
	for _, ms := range acked {
		for _, m := range ms {
			got, gok := rec.UserLocation(m.id)
			want, _ := eng.UserLocation(m.id)
			if !gok || got != want {
				t.Fatalf("acknowledged move of user %d to %v lost: recovered (%v, %v)", m.id, want, got, gok)
			}
			n++
		}
	}
	if n == 0 || n == writers*each {
		t.Fatalf("%d of %d moves acknowledged before the crash: the seam tripped outside the run", n, writers*each)
	}
}

// BenchmarkWritePaths measures the write queue end to end on a durable
// engine (gowalla 30k, fsync=batch) in two scenarios, each through the
// synchronous and the asynchronous calls:
//
//   - bulk: one client sends batches of 256 moves (async: a Flush at the
//     end is part of the timing);
//   - tiny: eight concurrent clients send one move per call.
//
// moves/s is the throughput; epochs/op how many published batches each
// move cost. b.N counts moves. Run with
//
//	go test -run='^$' -bench=WritePaths -benchtime=20000x .
func BenchmarkWritePaths(b *testing.B) {
	ds, err := Synthesize("gowalla", 30000, 1)
	if err != nil {
		b.Fatal(err)
	}
	var located []UserID
	for id := 0; id < ds.NumUsers(); id++ {
		if ds.Located(UserID(id)) {
			located = append(located, UserID(id))
		}
	}
	// move i takes a random located user onto another one's spot.
	rng := rand.New(rand.NewSource(1))
	moves := make([]Update, 1<<16)
	for i := range moves {
		to, _ := ds.Location(located[rng.Intn(len(located))])
		moves[i] = Update{ID: located[rng.Intn(len(located))], To: to}
	}
	open := func(b *testing.B) *Engine {
		eng, err := NewEngine(ds, &Options{Durability: &DurabilityOptions{Dir: b.TempDir(), Fsync: "batch"}})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(eng.Close)
		return eng
	}
	run := func(b *testing.B, eng *Engine, body func()) {
		epoch := eng.UpdateStats().AppliedBatches
		b.ResetTimer()
		body()
		eng.Flush()
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "moves/s")
		b.ReportMetric(float64(eng.UpdateStats().AppliedBatches-epoch)/float64(b.N), "epochs/op")
	}
	for _, async := range []bool{false, true} {
		mode := map[bool]string{false: "sync", true: "async"}[async]
		b.Run("bulk256/"+mode, func(b *testing.B) {
			eng := open(b)
			apply := eng.ApplyUpdates
			if async {
				apply = eng.ApplyUpdatesAsync
			}
			run(b, eng, func() {
				for i := 0; i < b.N; i += 256 {
					lo := i % len(moves)
					hi := min(lo+256, lo+b.N-i, len(moves))
					if err := apply(moves[lo:hi]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
		b.Run(fmt.Sprintf("tiny8x1/%s", mode), func(b *testing.B) {
			eng := open(b)
			run(b, eng, func() {
				var next atomic.Int64
				var wg sync.WaitGroup
				for c := 0; c < 8; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := int(next.Add(1)) - 1
							if i >= b.N {
								return
							}
							m := moves[i%len(moves)]
							var err error
							if async {
								err = moveUserAsync(eng, m.ID, m.To)
							} else {
								err = eng.MoveUser(m.ID, m.To)
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		})
	}
}
