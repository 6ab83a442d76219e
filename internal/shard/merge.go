package shard

import (
	"ssrq/internal/core"
	"ssrq/internal/pqueue"
)

// MergeTopK combines per-shard top-k lists — each already sorted ascending
// by (F, ID), the engines' canonical order — into the global top-k with a
// k-way merge heap: one heap entry per list, keyed by the list head's
// (F, ID), popped and refilled until k entries are emitted or every list is
// exhausted. Duplicate user IDs keep their first — best-ranked —
// occurrence.
//
// Because the inputs are sorted by exactly the comparator the per-shard topK
// uses, the merge output equals concatenate-sort-truncate, which the
// FuzzShardMerge target holds it to.
//
// Queries no longer merge per-shard lists — a query is one search over every
// shard's snapshot (query.go) — so nothing in the engine calls this. It stays
// for the benchmark's merge-cost probe, which still compiles against it.
func MergeTopK(k int, lists ...[]core.Entry) []core.Entry {
	if k <= 0 {
		return nil
	}
	h := pqueue.NewHeap[int](len(lists))
	pos := make([]int, len(lists))
	for i, l := range lists {
		if len(l) > 0 {
			h.Push(l[0].F, int64(l[0].ID), i)
		}
	}
	seen := make(map[int32]struct{}, k)
	out := make([]core.Entry, 0, k)
	for len(out) < k && h.Len() > 0 {
		e, _ := h.Pop()
		i := e.Value
		ent := lists[i][pos[i]]
		pos[i]++
		if pos[i] < len(lists[i]) {
			next := lists[i][pos[i]]
			h.Push(next.F, int64(next.ID), i)
		}
		if _, dup := seen[ent.ID]; dup {
			continue
		}
		seen[ent.ID] = struct{}{}
		out = append(out, ent)
	}
	return out
}
