package shard

import (
	"fmt"
	"testing"

	"ssrq/internal/core"
)

// TestSharedSubstrateIdentity witnesses the memory claim structurally: every
// shard's published snapshot carries the SAME graph and landmark objects —
// pointer-identical to the substrate's — so the social structures exist once
// regardless of shard count, and an edge op advances every shard to the same
// social epoch.
func TestSharedSubstrateIdentity(t *testing.T) {
	ds := clusteredDataset(t, 300, 71)
	se, err := New(ds, 8, core.Options{GridS: 5, GridLevels: 2, NumLandmarks: 3, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	check := func(label string, epoch uint64) {
		t.Helper()
		ssn := se.sub.Snapshot()
		lm := se.shards[0].Snapshot().Landmarks()
		for s, sh := range se.shards {
			sn := sh.Snapshot()
			if sn.SocialGraph() != ssn.Graph() {
				t.Fatalf("%s: shard %d publishes its own graph copy", label, s)
			}
			if sn.Landmarks() != lm {
				t.Fatalf("%s: shard %d publishes its own landmark tables", label, s)
			}
			if sn.SocialEpoch() != epoch {
				t.Fatalf("%s: shard %d at social epoch %d, want %d", label, s, sn.SocialEpoch(), epoch)
			}
		}
	}
	check("construction", 0)
	if err := addFriend(se, 1, 2, 0.25); err != nil {
		t.Fatal(err)
	}
	check("after sync edge op", 1)
	if err := removeFriend(se, 1, 2); err != nil {
		t.Fatal(err)
	}
	check("after sync edge removal", 2)
}

// BenchmarkEdgeOpSharded measures the synchronous edge-op apply path across
// shard counts. With the shared substrate the op applies once and each
// shard's consumer sync is a small constant (snapshot republish; the touched
// leaf recompute lands only on the one shard holding the endpoints), so the
// per-op cost must stay flat in S — the acceptance criterion is S=16 within
// ~1.5x of S=1, where the replicated design paid a full S-fold broadcast.
func BenchmarkEdgeOpSharded(b *testing.B) {
	for _, S := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("S=%d", S), func(b *testing.B) {
			ds := clusteredDataset(b, 1000, 97)
			se, err := New(ds, S, core.Options{
				GridS: 5, GridLevels: 2, NumLandmarks: 4, Seed: 97,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer se.Close()
			se.rebalanceThreshold = -1
			// A rotating pair set keeps every op an effective reweight (never
			// a no-op, never unbounded overlay growth).
			const pairs = 64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := int32(i % pairs)
				v := u + pairs
				// Alternate per full pair cycle, so every op changes the
				// weight it finds (an effective reweight, never a no-op).
				w := 0.25 + float64((i/pairs)&1)*0.5
				if err := addFriend(se, u, v, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
