package shard

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"ssrq/internal/core"
	"ssrq/internal/oplog"
	"ssrq/internal/spatial"
	"ssrq/internal/wal"
)

// TestBackpressureAndCloseNeverDeadlock drives the one write path at its
// tightest: a queue bounded at two ops, async writers sending batches of one
// and three ops, sync batches on the same users, a forced re-cut and a
// checkpoint, and Close while the async writers are still sending. Senders
// blocked on the full queue must be released by the writer or by Close, so
// the run finishes; and every batch whose ApplyUpdatesAsync returned nil
// must be journaled and applied — replaying the journal into a fresh engine
// reproduces the final world.
func TestBackpressureAndCloseNeverDeadlock(t *testing.T) {
	ds := clusteredDataset(t, 256, 53)
	opts := core.Options{GridS: 4, GridLevels: 2, NumLandmarks: 3, Seed: 53}
	se, err := New(ds, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	se.queueCap = 2
	log, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.FsyncOff, KeepSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := log.Close(); err != nil {
			t.Error(err)
		}
	}()
	se.AttachLog(log, nil)
	b, _ := spatial.BoundingRect(ds.Pts, ds.Located)
	n := int32(ds.NumUsers())
	point := func(rng *rand.Rand) spatial.Point {
		return spatial.Point{X: b.MinX + rng.Float64()*b.Width(), Y: b.MinY + rng.Float64()*b.Height()}
	}

	const asyncWriters, syncWriters = 8, 2
	accepted := make([][]core.Update, asyncWriters) // per writer: ops its accepted batches held
	var wg sync.WaitGroup
	finished := make(chan struct{})
	go func() {
		for w := 0; w < asyncWriters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(530 + w)))
				for i := 0; ; i++ {
					// Writer w owns the users ≡ w (mod 8); every other batch
					// holds three ops, more than the queue's bound.
					ops := make([]core.Update, 1+2*(i%2))
					for j := range ops {
						ops[j].ID = int32(w + asyncWriters*rng.Intn(int(n)/asyncWriters))
						if (i+j)%7 == 0 {
							ops[j].Remove = true
						} else {
							ops[j].To = point(rng)
						}
					}
					if se.ApplyUpdatesAsync(ops) != nil {
						return // closed
					}
					accepted[w] = append(accepted[w], ops...)
				}
			}(w)
		}
		var syncDone sync.WaitGroup
		for w := 0; w < syncWriters; w++ {
			syncDone.Add(1)
			go func(w int) {
				defer syncDone.Done()
				rng := rand.New(rand.NewSource(int64(540 + w)))
				for i := 0; i < 60; i++ {
					batch := []core.Update{
						{ID: rng.Int31n(n), To: point(rng)},
						{ID: rng.Int31n(n), To: point(rng)},
						{Kind: core.OpEdgeUpsert, U: rng.Int31n(n / 2), V: n/2 + rng.Int31n(n/2), W: 0.05 + rng.Float64()},
					}
					if err := se.ApplyUpdates(batch); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		// Let the uniform moves unsettle the clustered construction cut, then
		// re-cut under full traffic.
		for se.UpdateStats().AppliedUpdates < 300 {
			time.Sleep(time.Millisecond)
		}
		t.Logf("forced re-cut moved %d cells", se.Rebalance())
		if err := se.Checkpoint(); err != nil {
			t.Error(err)
		}
		syncDone.Wait()
		se.Close()
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("writers, re-cut, checkpoint and Close deadlocked")
	}

	// Every accepted op is in the journal, as often as it was accepted.
	recs, _, err := log.ReadFrom(1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	journaled := make(map[core.Update]int)
	for _, op := range oplog.Ops(recs) {
		journaled[op]++
	}
	total := 0
	for _, ops := range accepted {
		total += len(ops)
		for _, op := range ops {
			if journaled[op] == 0 {
				t.Fatalf("accepted op %+v missing from the journal", op)
			}
			journaled[op]--
		}
	}
	if total == 0 {
		t.Fatal("no async op was accepted before Close")
	}

	// And applied: the journal replayed into a fresh engine is this world.
	twin, err := New(ds, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if err := twin.ApplyUpdates(oplog.Ops(recs)); err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < n; id++ {
		gp, gok := se.UserLocation(id)
		wp, wok := twin.UserLocation(id)
		if gok != wok || gp != wp {
			t.Fatalf("user %d: engine (%v, %v), journal replay (%v, %v)", id, gp, gok, wp, wok)
		}
	}
	g, w := se.LiveSocialGraph(), twin.LiveSocialGraph()
	if g.NumEdges() != w.NumEdges() {
		t.Fatalf("engine has %d edges, journal replay %d", g.NumEdges(), w.NumEdges())
	}
	for u := int32(0); u < n; u++ {
		nbrs, ws := g.Neighbors(u)
		for i, v := range nbrs {
			if wt, ok := w.EdgeWeight(u, v); !ok || wt != ws[i] {
				t.Fatalf("edge (%d,%d): engine %v, journal replay (%v, %v)", u, v, ws[i], wt, ok)
			}
		}
	}
	t.Logf("%d async ops accepted before Close, %d records journaled", total, len(recs))
}
