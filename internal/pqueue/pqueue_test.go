package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapEmpty(t *testing.T) {
	var h Heap[string]
	if h.Len() != 0 {
		t.Fatalf("zero heap Len = %d, want 0", h.Len())
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap reported ok")
	}
}

func TestHeapOrdering(t *testing.T) {
	h := NewHeap[int](8)
	keys := []float64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for i, k := range keys {
		h.Push(k, int64(i), i)
	}
	prev := -1.0
	for h.Len() > 0 {
		e, ok := h.Pop()
		if !ok {
			t.Fatal("Pop failed with non-empty heap")
		}
		if e.Key < prev {
			t.Fatalf("pop order violated: %v after %v", e.Key, prev)
		}
		prev = e.Key
	}
}

func TestHeapTieBreakByTie(t *testing.T) {
	h := NewHeap[int](8)
	// All same key; ties must come out in ascending Tie order.
	ties := []int64{4, 1, 3, 0, 2}
	for _, tie := range ties {
		h.Push(1.0, tie, int(tie))
	}
	for want := int64(0); want < 5; want++ {
		e, _ := h.Pop()
		if e.Tie != want {
			t.Fatalf("tie order: got %d, want %d", e.Tie, want)
		}
	}
}

func TestHeapPeekMatchesPop(t *testing.T) {
	h := NewHeap[int](4)
	h.Push(2, 0, 20)
	h.Push(1, 1, 10)
	if e := h.Peek(); e.Key != 1 || e.Value != 10 {
		t.Fatalf("Peek = (%v, %d), want (1, 10)", e.Key, e.Value)
	}
	e, _ := h.Pop()
	if e.Value != 10 {
		t.Fatalf("Pop value = %d, want 10", e.Value)
	}
}

func TestHeapReset(t *testing.T) {
	h := NewHeap[int](4)
	h.Push(1, 0, 1)
	h.Push(2, 1, 2)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	h.Push(3, 2, 3)
	e, ok := h.Pop()
	if !ok || e.Value != 3 {
		t.Fatalf("heap unusable after Reset: %v %v", e, ok)
	}
}

func TestHeapSortsRandomSequences(t *testing.T) {
	property := func(keys []float64) bool {
		h := NewHeap[int](len(keys))
		for i, k := range keys {
			h.Push(k, int64(i), i)
		}
		sorted := append([]float64(nil), keys...)
		sort.Float64s(sorted)
		for _, want := range sorted {
			e, ok := h.Pop()
			if !ok || e.Key != want {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapBasic(t *testing.T) {
	h := NewIndexedHeap(10)
	if h.Len() != 0 {
		t.Fatalf("new heap Len = %d", h.Len())
	}
	if _, _, ok := h.PopMin(); ok {
		t.Fatal("PopMin on empty heap reported ok")
	}
	h.PushOrDecrease(3, 5.0)
	h.PushOrDecrease(7, 2.0)
	h.PushOrDecrease(1, 9.0)
	if !(h.pos[3] >= 0) || (h.pos[0] >= 0) {
		t.Fatal("queued flags wrong")
	}
	id, key, ok := h.PopMin()
	if !ok || id != 7 || key != 2.0 {
		t.Fatalf("PopMin = %d,%v want 7,2", id, key)
	}
	if h.pos[7] >= 0 {
		t.Fatal("popped item still queued")
	}
}

func TestIndexedHeapDecreaseKey(t *testing.T) {
	h := NewIndexedHeap(10)
	h.PushOrDecrease(0, 10)
	h.PushOrDecrease(1, 20)
	if changed := h.PushOrDecrease(1, 25); changed {
		t.Fatal("increasing key reported a change")
	}
	if changed := h.PushOrDecrease(1, 5); !changed {
		t.Fatal("decrease not applied")
	}
	id, key, _ := h.PopMin()
	if id != 1 || key != 5 {
		t.Fatalf("after decrease PopMin = %d,%v; want 1,5", id, key)
	}
}

func TestIndexedHeapTieBreakByID(t *testing.T) {
	h := NewIndexedHeap(5)
	for _, id := range []int32{4, 2, 0, 3, 1} {
		h.PushOrDecrease(id, 7.5)
	}
	for want := int32(0); want < 5; want++ {
		id, _, ok := h.PopMin()
		if !ok || id != want {
			t.Fatalf("tie order: got %d, want %d", id, want)
		}
	}
}

func TestIndexedHeapReset(t *testing.T) {
	h := NewIndexedHeap(5)
	h.PushOrDecrease(1, 1)
	h.PushOrDecrease(2, 2)
	h.Reset()
	if h.Len() != 0 || (h.pos[1] >= 0) || (h.pos[2] >= 0) {
		t.Fatal("Reset left state behind")
	}
	h.PushOrDecrease(3, 3)
	id, key, ok := h.PopMin()
	if !ok || id != 3 || key != 3 {
		t.Fatalf("heap unusable after Reset: %d %v %v", id, key, ok)
	}
}

func TestIndexedHeapMatchesReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		h := NewIndexedHeap(n)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(rng.Intn(20)) // few distinct keys to stress ties
			h.PushOrDecrease(int32(i), keys[i])
		}
		// Random decreases.
		for j := 0; j < n/2; j++ {
			id := int32(rng.Intn(n))
			nk := keys[id] - rng.Float64()*5
			if h.PushOrDecrease(id, nk) {
				keys[id] = nk
			}
		}
		type pair struct {
			id  int32
			key float64
		}
		want := make([]pair, n)
		for i := range want {
			want[i] = pair{int32(i), keys[i]}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].key != want[j].key {
				return want[i].key < want[j].key
			}
			return want[i].id < want[j].id
		})
		for i, w := range want {
			id, key, ok := h.PopMin()
			if !ok || id != w.id || key != w.key {
				t.Fatalf("trial %d pos %d: got (%d,%v), want (%d,%v)", trial, i, id, key, w.id, w.key)
			}
		}
	}
}

func TestIndexedHeapKeyAccessor(t *testing.T) {
	h := NewIndexedHeap(3)
	h.PushOrDecrease(2, 1.25)
	if got := h.slots[h.pos[2]].key; got != 1.25 {
		t.Fatalf("Key = %v, want 1.25", got)
	}
}

// refIndexed is the by-definition indexed priority queue: a map and a linear
// scan for the (key, id) minimum.
type refIndexed map[int32]float64

func (r refIndexed) popMin() (id int32, key float64, ok bool) {
	for i, k := range r {
		if !ok || k < key || (k == key && i < id) {
			id, key, ok = i, k, true
		}
	}
	delete(r, id)
	return id, key, ok
}

// TestIndexedHeapMatchesReferenceUnderRandomOps drives the heap and the
// reference through the same random mix of every mutating operation, with
// keys drawn from a handful of values so ties are the common case: every
// return value, and therefore every pop sequence, must be identical.
func TestIndexedHeapMatchesReferenceUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(150)
		h, ref := NewIndexedHeap(n), refIndexed{}
		for step := 0; step < 40*n; step++ {
			id, key := int32(rng.Intn(n)), float64(rng.Intn(8))
			switch op := rng.Intn(100); {
			case op < 50:
				old, queued := ref[id]
				want := !queued || key < old
				if want {
					ref[id] = key
				}
				if got := h.PushOrDecrease(id, key); got != want {
					t.Fatalf("trial %d step %d: PushOrDecrease(%d,%v) = %v, want %v", trial, step, id, key, got, want)
				}
			case op < 99:
				wid, wkey, wok := ref.popMin()
				gid, gkey, gok := h.PeekMin()
				if gid != wid && gok || gkey != wkey || gok != wok {
					t.Fatalf("trial %d step %d: PeekMin = (%d,%v,%v), want (%d,%v,%v)", trial, step, gid, gkey, gok, wid, wkey, wok)
				}
				gid, gkey, gok = h.PopMin()
				if gid != wid || gkey != wkey || gok != wok {
					t.Fatalf("trial %d step %d: PopMin = (%d,%v,%v), want (%d,%v,%v)", trial, step, gid, gkey, gok, wid, wkey, wok)
				}
			default:
				clear(ref)
				h.Reset()
			}
			if h.Len() != len(ref) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, h.Len(), len(ref))
			}
			if k, queued := ref[id]; queued != (h.pos[id] >= 0) || (queued && h.slots[h.pos[id]].key != k) {
				t.Fatalf("trial %d step %d: item %d queued=%v, want queued=%v with key %v", trial, step, id, (h.pos[id] >= 0), queued, k)
			}
		}
		// Drain: the remaining pop sequence is the sorted (key, id) order.
		for len(ref) > 0 {
			wid, wkey, _ := ref.popMin()
			if gid, gkey, gok := h.PopMin(); !gok || gid != wid || gkey != wkey {
				t.Fatalf("trial %d drain: PopMin = (%d,%v,%v), want (%d,%v)", trial, gid, gkey, gok, wid, wkey)
			}
		}
		if _, _, ok := h.PopMin(); ok {
			t.Fatalf("trial %d: heap outlived the reference", trial)
		}
	}
}
