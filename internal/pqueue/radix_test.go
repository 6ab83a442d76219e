package pqueue

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestRadixEmptyAndReset(t *testing.T) {
	var h Radix
	if _, _, ok := h.Pop(); ok {
		t.Fatal("zero Radix is not empty")
	}
	h.Push(1, 5)
	h.Push(2, 7)
	if id, key, ok := h.Pop(); !ok || id != 1 || key != 5 {
		t.Fatalf("Pop = %d,%v,%v want 1,5,true", id, key, ok)
	}
	h.Reset()
	if _, _, ok := h.Pop(); ok {
		t.Fatal("Reset left entries behind")
	}
	// After Reset the last popped key is forgotten: smaller keys are legal.
	h.Push(3, 1)
	if id, key, ok := h.Pop(); !ok || id != 3 || key != 1 {
		t.Fatalf("heap unusable after Reset: %d %v %v", id, key, ok)
	}
}

// TestRadixMatchesReferenceUnderMonotoneOps drives the heap and a plain
// reference list through the same random monotone sequence — every push at or
// above the last popped key, with +0, equal keys and keys spread from
// subnormals to 2^60 — and checks that each pop returns a queued (id, key)
// pair holding the reference's minimum key.
func TestRadixMatchesReferenceUnderMonotoneOps(t *testing.T) {
	type entry struct {
		id  int32
		key float64
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		var h Radix
		var ref []entry
		last := 0.0
		nextID := int32(0)
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(100); {
			case op < 55:
				var key float64
				switch rng.Intn(4) {
				case 0: // equal to the last pop (+0 before the first)
					key = last
				case 1: // equal to a queued key
					if len(ref) > 0 {
						key = ref[rng.Intn(len(ref))].key
					} else {
						key = last
					}
				default: // any exponent from subnormal to 2^60
					key = last + math.Ldexp(rng.Float64(), rng.Intn(1135)-1074)
				}
				h.Push(nextID, key)
				ref = append(ref, entry{nextID, key})
				nextID++
			case op < 99:
				gid, gkey, gok := h.Pop()
				if len(ref) == 0 {
					if gok {
						t.Fatalf("trial %d step %d: Pop on empty heap returned (%d,%v)", trial, step, gid, gkey)
					}
					continue
				}
				low := slices.MinFunc(ref, func(a, b entry) int { return cmp.Compare(a.key, b.key) }).key
				i := slices.Index(ref, entry{gid, gkey})
				if !gok || gkey != low || i < 0 {
					t.Fatalf("trial %d step %d: Pop = (%d,%v,%v), want a queued entry with key %v", trial, step, gid, gkey, gok, low)
				}
				ref = slices.Delete(ref, i, i+1)
				last = gkey
			default:
				h.Reset()
				ref, last = ref[:0], 0
			}
		}
		// Drain: the remaining pop keys are the reference's keys, sorted.
		want := make([]float64, len(ref))
		for i, e := range ref {
			want[i] = e.key
		}
		slices.Sort(want)
		for i, w := range want {
			_, key, ok := h.Pop()
			if !ok || key != w || math.Signbit(key) {
				t.Fatalf("trial %d drain %d: Pop key = %v,%v, want %v", trial, i, key, ok, w)
			}
		}
		if _, _, ok := h.Pop(); ok {
			t.Fatalf("trial %d: heap outlived the reference", trial)
		}
	}
}
