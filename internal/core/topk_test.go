package core

import (
	"math"
	"testing"
)

// TestTopKKeepsOneEntryPerUser pins what replaced the sharded merge's
// dedupe: a user can be offered twice, and the interim result keeps only
// that user's better (F, ID) entry, so f_k is always the kth of k distinct
// users.
func TestTopKKeepsOneEntryPerUser(t *testing.T) {
	r := newTopK(3)
	r.Consider(Entry{ID: 1, F: 0.5})
	r.Consider(Entry{ID: 2, F: 0.6})
	if got := r.Fk(); !math.IsInf(got, 1) {
		t.Fatalf("under-filled Fk = %v, want +Inf", got)
	}
	// A worse copy of a held user is refused and leaves the result alone.
	if r.Consider(Entry{ID: 1, F: 0.55}) {
		t.Fatal("admitted a worse second entry for user 1")
	}
	// An exact copy is refused too.
	if r.Consider(Entry{ID: 2, F: 0.6}) {
		t.Fatal("admitted an identical second entry for user 2")
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d after refused copies, want 2", r.Len())
	}
	// A better copy replaces the held one in place of evicting the kth.
	r.Consider(Entry{ID: 3, F: 0.7})
	if !r.Consider(Entry{ID: 3, F: 0.4}) {
		t.Fatal("refused a better second entry for user 3")
	}
	want := []Entry{{ID: 3, F: 0.4}, {ID: 1, F: 0.5}, {ID: 2, F: 0.6}}
	got := r.Sorted()
	if len(got) != len(want) {
		t.Fatalf("entries %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].F != want[i].F {
			t.Fatalf("entries %+v, want %+v", got, want)
		}
	}
	if got := r.Fk(); got != 0.6 {
		t.Fatalf("Fk = %v, want 0.6", got)
	}
	// A full result still refuses an entry worse than its kth before any
	// duplicate scan, and never admits a non-finite one.
	if r.Consider(Entry{ID: 9, F: 0.65}) || r.Consider(Entry{ID: 8, F: math.Inf(1)}) {
		t.Fatal("admitted an entry that cannot beat f_k")
	}
	// Ties on F still break by ascending ID.
	r.Consider(Entry{ID: 0, F: 0.6})
	if got := r.Sorted(); got[2].ID != 0 {
		t.Fatalf("tie on F kept ID %d, want 0", got[2].ID)
	}
}
