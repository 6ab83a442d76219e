package core

import (
	"math"
	"sync/atomic"
)

// SharedBound is a monotonically-tightening upper bound on a query's final
// kth ranking value, shared by every search participating in one fan-out. It
// is the live form of the seed bound QueryOn accepts: each shard's interim
// result both reads it (through topK.Fk) and improves it as entries are
// admitted, so a shard that fills its top-k early tightens the termination
// threshold of every shard still searching — and of shards not yet launched.
//
// Soundness: Tighten is only ever called with the kth-best ranking value of k
// actually-evaluated distinct users (a shard's full interim result), which is
// an upper bound on the merged result's kth value — the merged set contains
// those k users. Consumers apply the bound with *strict* semantics (see
// topK.Fk): entries tying the bound are still reported, so ID tiebreaks
// survive and the merged result stays bit-identical to a single index's.
//
// The zero value is unusable; construct with NewSharedBound. All methods are
// safe for concurrent use: the float is stored as its IEEE-754 bits in an
// atomic word and tightened by compare-and-swap.
type SharedBound struct {
	bits atomic.Uint64
}

// NewSharedBound returns a bound initialized to f (+Inf for "no bound yet").
func NewSharedBound(f float64) *SharedBound {
	b := &SharedBound{}
	if math.IsNaN(f) {
		f = math.Inf(1)
	}
	b.bits.Store(math.Float64bits(f))
	return b
}

// Load returns the current bound.
func (b *SharedBound) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// Tighten lowers the bound to f if f is smaller than the current value; the
// bound only ever decreases. NaN is ignored.
func (b *SharedBound) Tighten(f float64) {
	if math.IsNaN(f) {
		return
	}
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= f {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(f)) {
			return
		}
	}
}
