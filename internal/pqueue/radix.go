package pqueue

import (
	"math"
	"math/bits"
)

// Radix is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990) over
// non-negative float64 keys: the queue of full shortest-path sweeps, where
// every key pushed is a popped key plus a positive weight.
//
// Non-negative floats order the same as their IEEE-754 bit patterns, so keys
// are kept as math.Float64bits values. Bucket b holds the entries whose key
// first differs from the last popped key at bit b-1 (bucket 0: equal to it).
// A pop from an empty bucket 0 takes the lowest non-empty bucket, makes its
// minimum the new last key and redistributes the bucket's entries into lower
// buckets; each entry moves down at most 64 times over its life, and pops
// compare nothing but the entries of one bucket.
//
// Precondition, not checked: every pushed key is non-negative (+0 included,
// -0 and NaN excluded) and no smaller than the last key popped. Under it Pop
// returns keys in non-decreasing order. Entries with equal keys pop in an
// unspecified order, and an id may be queued more than once — a caller that
// lowers a key pushes again and skips the stale entry when it pops.
//
// The zero value is an empty heap. Radix is not safe for concurrent use.
type Radix struct {
	buckets [65][]radixEntry
	last    uint64 // bit pattern of the last popped key
}

type radixEntry struct {
	key uint64
	id  int32
}

// Push queues id with the given key; see the type's precondition.
func (h *Radix) Push(id int32, key float64) {
	k := math.Float64bits(key)
	b := bits.Len64(k ^ h.last)
	h.buckets[b] = append(h.buckets[b], radixEntry{k, id})
}

// Pop removes and returns an entry with the smallest key. ok is false when
// the heap is empty.
func (h *Radix) Pop() (id int32, key float64, ok bool) {
	if len(h.buckets[0]) == 0 {
		i := 1
		for i < len(h.buckets) && len(h.buckets[i]) == 0 {
			i++
		}
		if i == len(h.buckets) {
			return 0, 0, false
		}
		src := h.buckets[i]
		low := src[0].key
		for _, e := range src[1:] {
			low = min(low, e.key)
		}
		h.last = low
		for _, e := range src {
			b := bits.Len64(e.key ^ low)
			h.buckets[b] = append(h.buckets[b], e)
		}
		h.buckets[i] = src[:0]
	}
	b0 := h.buckets[0]
	e := b0[len(b0)-1]
	h.buckets[0] = b0[:len(b0)-1]
	return e.id, math.Float64frombits(e.key), true
}

// Reset empties the heap, keeping every bucket's capacity.
func (h *Radix) Reset() {
	for i := range h.buckets {
		h.buckets[i] = h.buckets[i][:0]
	}
	h.last = 0
}
