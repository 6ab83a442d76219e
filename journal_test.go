package ssrq

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"ssrq/internal/aggindex"
)

// The one durability rule (DESIGN.md §5), pinned from outside: a record is
// appended when its batch applies and the log is committed before the batch
// mutates anything.

// TestFlushedBatchFsyncBudget: 256 asynchronous moves, sent as 32 batches of
// eight and then flushed, cost a commit per writer unit under fsync=batch,
// whatever the shard count — at most two units here, so two commits, plus
// one of slack — and everything they journaled is durable when Flush
// returns. An engine that fsyncs per batch reads 32 here, one that fsyncs
// per op 256.
//
// The epoch callback parks the writer right after its first unit publishes,
// until every batch is queued: the batches it did not take and the Flush
// then make one unit, not a race between the writer and the senders.
func TestFlushedBatchFsyncBudget(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			ds, err := Synthesize("twitter", 600, 61) // every user located
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(ds, &Options{Shards: shards, Durability: &DurabilityOptions{Dir: t.TempDir(), Fsync: "batch"}})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			gate := make(chan struct{})
			eng.eng.OnEpoch(func(aggindex.EpochDelta) { <-gate })

			const moves, per = 256, 8
			before := eng.DurabilityStats().Fsyncs
			for i := 0; i < moves; i += per {
				batch := make([]Update, per)
				for j := range batch {
					// Each mover takes another user's spot across the map, so
					// with several shards most moves cross a boundary.
					to, _ := ds.Location(UserID(((i+j)*37 + 300) % ds.NumUsers()))
					batch[j] = Update{ID: UserID(i + j), To: to}
				}
				if err := eng.ApplyUpdatesAsync(batch); err != nil {
					t.Fatal(err)
				}
			}
			close(gate)
			eng.Flush()

			st := eng.DurabilityStats()
			if got, budget := st.Fsyncs-before, int64(3); got > budget {
				t.Fatalf("%d fsyncs for %d flushed async moves, budget %d", got, moves, budget)
			} else {
				t.Logf("%d fsyncs for %d flushed async moves (budget %d)", got, moves, budget)
			}
			if eng.WALLastSeq() != moves || eng.WALDurableSeq() != eng.WALLastSeq() {
				t.Fatalf("after Flush: last seq %d, durable %d, want both %d", eng.WALLastSeq(), eng.WALDurableSeq(), moves)
			}
		})
	}
}

// TestDurableBeforeVisible: one writer moves user u through positions p_1,
// p_2, … asynchronously — the only journaled traffic, so p_i's record has
// sequence base+i — while a reader polls u's location. Whenever p_i is
// visible, the log must already be durable through base+i.
func TestDurableBeforeVisible(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			ds, err := Synthesize("twitter", 300, 62)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(ds, &Options{Shards: shards, Durability: &DurabilityOptions{Dir: t.TempDir(), Fsync: "batch"}})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			// p_i sweeps x across the whole map (crossing shard boundaries when
			// there are any) and encodes i in it; y alternates between two rows.
			const u, moves = UserID(5), 600
			minX, minY, maxX, maxY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
			for id := 0; id < ds.NumUsers(); id++ {
				p, _ := ds.Location(UserID(id))
				minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
				minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
			}
			step := (maxX - minX) / moves
			pos := func(i int) Point {
				return Point{X: minX + float64(i)*step, Y: minY + float64(i%2)*(maxY-minY)}
			}
			// check reads the location, then the durable position: the latter
			// only grows, so a late read cannot excuse an early visibility.
			base := eng.WALLastSeq()
			var seen sync.Map
			check := func() error {
				p, ok := eng.UserLocation(u)
				if !ok {
					return fmt.Errorf("user %d, only ever moved, read as unlocated", u)
				}
				i := int(math.Round((p.X - minX) / step))
				if i < 1 || i > moves || math.Abs(p.X-pos(i).X) > step/4 {
					return nil // still at the construction-time location
				}
				seen.Store(i, true)
				if d := eng.WALDurableSeq(); d < base+uint64(i) {
					return fmt.Errorf("p_%d visible with the log durable only through %d, its record is %d", i, d, base+uint64(i))
				}
				return nil
			}

			done := make(chan struct{})
			readerErr := make(chan error, 1)
			go func() {
				defer close(readerErr)
				for {
					select {
					case <-done:
						return
					default:
					}
					if err := check(); err != nil {
						readerErr <- err
						return
					}
				}
			}()
			for i := 1; i <= moves; i++ {
				if err := moveUserAsync(eng, u, pos(i)); err != nil {
					t.Fatal(err)
				}
				runtime.Gosched() // let the writer and the reader in between moves
				if i%40 == 0 {
					// A deterministic sample besides whatever the reader catches.
					eng.Flush()
					if err := check(); err != nil {
						t.Fatal(err)
					}
				}
			}
			eng.Flush()
			close(done)
			if err := <-readerErr; err != nil {
				t.Fatal(err)
			}
			n := 0
			seen.Range(func(_, _ any) bool { n++; return true })
			if _, ok := seen.Load(moves); !ok || n < moves/40 {
				t.Fatalf("observed %d distinct positions, final seen=%v", n, ok)
			}
			t.Logf("observed %d distinct positions", n)
		})
	}
}
