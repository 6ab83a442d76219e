package wal

import (
	"testing"

	"ssrq/internal/oplog"
)

// TestStageThenCommit: staged records hold their sequence numbers but are
// neither readable nor durable until a Commit, which hands all of them to the
// OS and — under FsyncBatch — fsyncs once, however many were staged.
func TestStageThenCommit(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncBatch})
	for i := 0; i < 10; i++ {
		first, last, err := l.Stage([]oplog.Record{moveRec(int32(i), float64(i))})
		if err != nil || first != uint64(i+1) || last != first {
			t.Fatalf("Stage %d: [%d,%d] %v", i, first, last, err)
		}
	}
	if got, _, err := l.ReadFrom(1, 100); err != nil || len(got) != 0 {
		t.Fatalf("staged records readable before Commit: %d recs, %v", len(got), err)
	}
	if l.LastSeq() != 10 || l.DurableSeq() != 0 {
		t.Fatalf("before Commit: last %d durable %d, want 10 and 0", l.LastSeq(), l.DurableSeq())
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil { // nothing new: no second fsync
		t.Fatal(err)
	}
	st := l.Stats()
	if st.DurableSeq != 10 || st.Fsyncs != 1 {
		t.Fatalf("after Commit: durable %d, %d fsyncs, want 10 and 1", st.DurableSeq, st.Fsyncs)
	}
	if got, last, err := l.ReadFrom(1, 100); err != nil || len(got) != 10 || last != 10 {
		t.Fatalf("after Commit: read %d recs last=%d %v", len(got), last, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncFlushesStagedRecords: Sync makes staged records durable whatever
// the policy, and Close seals them — a scan replays all of them.
func TestSyncFlushesStagedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncOff})
	if _, _, err := l.Stage([]oplog.Record{moveRec(1, 1), moveRec(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.DurableSeq() != 2 {
		t.Fatalf("durable %d after Sync, want 2", l.DurableSeq())
	}
	if _, _, err := l.Stage([]oplog.Record{moveRec(3, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.TailRecords) != 3 || rec.LastSeq != 3 {
		t.Fatalf("a scan replays %d recs, last %d, want 3", len(rec.TailRecords), rec.LastSeq)
	}
}
