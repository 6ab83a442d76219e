// Package wal is a group-committed write-ahead log of oplog records, plus
// snapshot checkpoints and the crash-recovery scan that stitches the two
// back into an engine.
//
// On-disk layout (all little-endian, all records self-checksummed):
//
//	<dir>/wal-<firstseq>.log          segment: 16-byte header
//	                                  ("SSRQWAL1" + first seq), then
//	                                  back-to-back oplog records with
//	                                  contiguous sequence numbers
//	<dir>/checkpoint-<seq>.ckpt       checkpoint: 24-byte header
//	                                  ("SSRQCKP1" + seq + record count),
//	                                  then that many oplog records that
//	                                  rebuild the state diff vs the
//	                                  construction dataset
//
// Appends are serialized and assign sequence numbers. Stage only encodes
// into the log's write buffer; Commit hands everything buffered to the OS
// and applies the fsync policy (Append is the two back to back), so a
// crashed process (whose page cache survives) loses at most what was
// buffered or being written when it died — always a suffix. Fsync policy
// decides what a power loss can take: group commit on every Commit
// (concurrent committers share one fsync), interval (a background syncer),
// or off. Checkpoints are written tmp→fsync→rename and prune the
// segments they cover; recovery loads the newest valid checkpoint and
// replays the remaining tail, truncating a torn or corrupt final segment
// tail at the last clean record boundary.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssrq/internal/oplog"
)

// FsyncPolicy selects when appended records are fsynced.
type FsyncPolicy int

const (
	// FsyncBatch fsyncs before a Commit (or Append) returns; concurrent
	// committers share one fsync (group commit).
	FsyncBatch FsyncPolicy = iota
	// FsyncInterval fsyncs on a background timer (Options.FsyncInterval).
	FsyncInterval
	// FsyncOff never fsyncs. Data still reaches the OS per Commit, so it
	// survives process death (kill -9); only power loss can take it.
	FsyncOff
)

// String names the policy for stats/flags.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses "batch", "interval", or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch", "":
		return FsyncBatch, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch, interval, or off)", s)
}

// Options configures a Log.
type Options struct {
	Fsync         FsyncPolicy
	FsyncInterval time.Duration // FsyncInterval policy period (default 50ms)
	// SegmentMaxBytes rotates the active segment past this size
	// (default 8 MiB).
	SegmentMaxBytes int64
	// KeepSegments disables segment pruning on checkpoint, keeping the
	// full history replayable from sequence 1 (followers tailing the
	// directory, differential tests).
	KeepSegments bool
	// StartSeq is the first sequence number of a brand-new log
	// (default 1). Ignored when the directory already holds a log.
	StartSeq uint64
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 50 * time.Millisecond
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 8 << 20
	}
	if o.StartSeq == 0 {
		o.StartSeq = 1
	}
	return o
}

var (
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: closed")
	// ErrCompacted reports a read below the first retained sequence (the
	// records were pruned by a checkpoint); readers must re-bootstrap.
	ErrCompacted = errors.New("wal: sequence compacted")
)

var segMagic = [8]byte{'S', 'S', 'R', 'Q', 'W', 'A', 'L', '1'}
var ckptMagic = [8]byte{'S', 'S', 'R', 'Q', 'C', 'K', 'P', '1'}

const segHeaderSize = 16
const ckptHeaderSize = 24

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.log", first) }
func ckptName(seq uint64) string  { return fmt.Sprintf("checkpoint-%016x.ckpt", seq) }
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

// Recovery is what Open (or ScanDir) found on disk: the newest valid
// checkpoint plus the replayable tail after it. Apply CheckpointRecords
// then TailRecords, in order, to rebuild the logged state.
type Recovery struct {
	CheckpointSeq     uint64 // 0 when no checkpoint was found
	CheckpointRecords []oplog.Record
	TailRecords       []oplog.Record
	// FirstSeq/LastSeq bound the records retained in segments
	// (LastSeq == CheckpointSeq when the tail is empty).
	FirstSeq, LastSeq uint64
	// TruncatedBytes counts torn/corrupt tail bytes dropped from the
	// final segment.
	TruncatedBytes int64
}

// Log is an append-only write-ahead log rooted at one directory. One
// writer process per directory; readers (ScanDir, ReadDirFrom, followers)
// are safe concurrently.
type Log struct {
	dir  string
	opts Options

	mu          sync.Mutex
	f           *os.File
	w           *bufio.Writer
	buf         []byte
	activeFirst uint64
	activeBytes int64
	earliest    uint64 // first seq still retained in segments
	nextSeq     uint64
	closed      bool
	crashed     bool // test seam tripped: writes silently vanish

	written atomic.Uint64 // last seq handed to the OS
	synced  atomic.Uint64 // last seq known durable under the policy
	syncMu  sync.Mutex

	ckptSeq      atomic.Uint64
	checkpoints  atomic.Int64
	appendErrors atomic.Int64
	fsyncs       atomic.Int64 // segment fsyncs issued (commits, rotations, Close)

	// writeBudget is the crash-test seam: once non-negative, at most that
	// many further bytes reach the file, then the log behaves as if the
	// process died (writes vanish, fsync is refused).
	writeBudget atomic.Int64
	// testBeforeCkptInstall: see TestingBeforeCheckpointInstall.
	testBeforeCkptInstall func()

	stopSync chan struct{}
	syncDone chan struct{}
}

// Open opens (creating or recovering) the log in dir and reports what a
// restart must replay. The returned Recovery is nil only on error.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec, segs, err := scan(dir, true)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{dir: dir, opts: opts}
	l.writeBudget.Store(-1)
	l.ckptSeq.Store(rec.CheckpointSeq)
	l.nextSeq = rec.LastSeq + 1
	if l.nextSeq < opts.StartSeq {
		l.nextSeq = opts.StartSeq
	}
	l.earliest = rec.FirstSeq
	l.written.Store(rec.LastSeq)
	l.synced.Store(rec.LastSeq)

	if n := len(segs); n > 0 {
		last := segs[n-1]
		f, err := os.OpenFile(filepath.Join(dir, segName(last.first)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			closeQuiet(f)
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.w = f, bufio.NewWriter(f)
		l.activeFirst, l.activeBytes = last.first, st.Size()
	} else {
		if err := l.createSegmentLocked(l.nextSeq); err != nil {
			return nil, nil, err
		}
		l.earliest = l.nextSeq
	}

	if opts.Fsync == FsyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, rec, nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			if err := l.Sync(); err != nil {
				l.appendErrors.Add(1)
			}
		}
	}
}

// Append is Stage followed by Commit: on return the records are with the
// OS and, under FsyncBatch, fsynced.
func (l *Log) Append(recs []oplog.Record) (first, last uint64, err error) {
	if first, last, err = l.Stage(recs); err != nil || len(recs) == 0 {
		return first, last, err
	}
	return first, last, l.Commit()
}

// Stage assigns sequence numbers to recs (mutating their Seq fields) and
// encodes them into the log's write buffer, returning the first and last
// assigned sequence. No syscall in the common case (a full buffer spills, a
// full segment rotates): the records reach the OS, and become durable under
// the fsync policy, at the next Commit.
func (l *Log) Stage(recs []oplog.Record) (first, last uint64, err error) {
	if len(recs) == 0 {
		return 0, 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrClosed
	}
	first = l.nextSeq
	l.buf = l.buf[:0]
	for i := range recs {
		recs[i].Seq = l.nextSeq
		l.nextSeq++
		l.buf = recs[i].Append(l.buf)
	}
	last = l.nextSeq - 1
	if !l.crashed && l.activeBytes >= l.opts.SegmentMaxBytes {
		err = l.rotateLocked(first)
	}
	if err == nil {
		err = l.writeLocked(l.buf)
	}
	if err != nil {
		l.appendErrors.Add(1)
	}
	return first, last, err
}

// Commit hands every buffered record to the OS and applies the fsync policy
// up to the newest of them: FsyncBatch fsyncs (sharing the fsync with
// concurrent committers), FsyncInterval leaves that to the background
// syncer, FsyncOff counts OS-resident as durable. A no-op when nothing was
// buffered since the last Commit.
func (l *Log) Commit() error {
	target, err := l.flush()
	if err == nil && l.opts.Fsync == FsyncBatch {
		err = l.maybeSync(target)
	}
	if err != nil {
		l.appendErrors.Add(1)
		return err
	}
	if l.opts.Fsync == FsyncOff {
		// Process-crash durable only (the records reached the OS); power
		// loss may take them, which is the policy's contract.
		advance(&l.synced, target)
	}
	return nil
}

// flush drains the write buffer to the OS and returns the newest sequence
// known to be there. A closed log has nothing buffered (Close flushed it and
// Stage refuses since), so there it is a no-op.
func (l *Log) flush() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed && !l.crashed && l.w != nil {
		if err := l.w.Flush(); err != nil {
			return l.written.Load(), err
		}
		l.written.Store(l.nextSeq - 1)
	}
	return l.written.Load(), nil
}

// writeLocked writes b through the buffered writer, honoring the crash
// seam: once the budget runs out the tail of b is dropped, the budget trips
// to "crashed", and all later writes silently vanish — exactly the torn
// suffix a dead process leaves in the page cache.
func (l *Log) writeLocked(b []byte) error {
	if l.crashed {
		return nil
	}
	if budget := l.writeBudget.Load(); budget >= 0 {
		n := int64(len(b))
		if n >= budget {
			n = budget
			l.crashed = true
		}
		l.writeBudget.Store(budget - n)
		b = b[:n]
		if len(b) > 0 {
			if _, err := l.w.Write(b); err != nil {
				return err
			}
			if err := l.w.Flush(); err != nil {
				return err
			}
			l.activeBytes += n
		}
		return nil
	}
	n, err := l.w.Write(b)
	l.activeBytes += int64(n)
	return err
}

// maybeSync makes every record up to target durable, sharing fsyncs among
// concurrent callers: if someone else's fsync already covered target, skip.
func (l *Log) maybeSync(target uint64) error {
	if l.synced.Load() >= target {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= target {
		return nil
	}
	l.mu.Lock()
	f, w, dead := l.f, l.written.Load(), l.crashed || l.closed
	l.mu.Unlock()
	if dead || f == nil || w < target {
		// Crashed (seam) or the write itself failed; nothing to promise.
		return nil
	}
	if err := l.syncFile(f); err != nil {
		return err
	}
	advance(&l.synced, w)
	return nil
}

// syncFile fsyncs a segment file and counts it (Stats.Fsyncs).
func (l *Log) syncFile(f *os.File) error {
	l.fsyncs.Add(1)
	return f.Sync()
}

func advance(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (l *Log) createSegmentLocked(first uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(first)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, first)
	if _, err := f.Write(hdr); err != nil {
		closeQuiet(f)
		return fmt.Errorf("wal: segment header: %w", err)
	}
	l.f, l.w = f, bufio.NewWriter(f)
	l.activeFirst, l.activeBytes = first, segHeaderSize
	return nil
}

// rotateLocked seals the active segment (flush+fsync+close) and starts a
// new one whose first record will be seq first.
func (l *Log) rotateLocked(first uint64) error {
	if l.f != nil {
		if err := l.w.Flush(); err != nil {
			return err
		}
		if err := l.syncFile(l.f); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f, l.w = nil, nil
	}
	return l.createSegmentLocked(first)
}

// WriteCheckpoint durably writes a checkpoint claiming "applying these
// records to a freshly built engine reaches the logged state as of seq",
// then rotates and (unless KeepSegments) prunes the segments and older
// checkpoints it supersedes. Callers must guarantee every record ≤ seq was
// applied to the state recs describe;
// overlap past seq is harmless because records are absolute writes.
func (l *Log) WriteCheckpoint(seq uint64, recs []oplog.Record) error {
	l.mu.Lock()
	if l.closed || l.crashed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.mu.Unlock()

	buf := make([]byte, 0, ckptHeaderSize+len(recs)*oplog.MaxEncodedSize)
	buf = append(buf, ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
	for _, r := range recs {
		r.Seq = 0 // checkpoint records carry state, not log positions
		buf = r.Append(buf)
	}
	tmp := filepath.Join(l.dir, ckptName(seq)+".tmp")
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if l.testBeforeCkptInstall != nil {
		l.testBeforeCkptInstall()
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, ckptName(seq))); err != nil {
		return fmt.Errorf("wal: install checkpoint: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.crashed {
		return ErrClosed
	}
	if seq > l.ckptSeq.Load() {
		l.ckptSeq.Store(seq)
	}
	l.checkpoints.Add(1)
	// Rotate so the whole pre-checkpoint history sits in sealed segments,
	// then drop everything the checkpoint supersedes.
	if l.activeBytes > segHeaderSize {
		if err := l.rotateLocked(l.nextSeq); err != nil {
			return err
		}
	}
	if l.opts.KeepSegments {
		return nil
	}
	return l.pruneLocked(seq)
}

// pruneLocked removes sealed segments fully covered by a checkpoint at seq
// and all but the two newest checkpoints.
func (l *Log) pruneLocked(seq uint64) error {
	segNames, err := listSeqNames(l.dir, "wal-", ".log")
	if err != nil {
		return err
	}
	firsts := make([]uint64, len(segNames))
	for i, name := range segNames {
		firsts[i], _ = parseSeqName(name, "wal-", ".log")
	}
	for i, first := range firsts {
		if first == l.activeFirst {
			break
		}
		if i+1 < len(firsts) && firsts[i+1] <= seq+1 {
			if err := os.Remove(filepath.Join(l.dir, segNames[i])); err != nil {
				return fmt.Errorf("wal: prune: %w", err)
			}
			l.earliest = firsts[i+1]
		} else {
			l.earliest = first
			break
		}
	}
	names, err := listSeqNames(l.dir, "checkpoint-", ".ckpt")
	if err != nil {
		return err
	}
	for i := 0; i+2 < len(names); i++ {
		if err := os.Remove(filepath.Join(l.dir, names[i])); err != nil {
			return fmt.Errorf("wal: prune checkpoint: %w", err)
		}
	}
	return syncDir(l.dir)
}

// Sync forces everything appended so far — buffered records included —
// durable regardless of policy.
func (l *Log) Sync() error {
	target, err := l.flush()
	if err != nil {
		return err
	}
	return l.maybeSync(target)
}

// Close flushes, fsyncs, and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.stopSync != nil {
		close(l.stopSync)
	}
	var err error
	if l.f != nil && !l.crashed {
		if ferr := l.w.Flush(); ferr != nil {
			err = ferr
		} else if serr := l.syncFile(l.f); serr != nil {
			err = serr
		} else {
			l.written.Store(l.nextSeq - 1)
			advance(&l.synced, l.nextSeq-1)
		}
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	} else if l.f != nil {
		closeQuiet(l.f)
	}
	l.f, l.w = nil, nil
	l.closed = true
	l.mu.Unlock()
	if l.syncDone != nil {
		<-l.syncDone
	}
	return err
}

// LastSeq returns the last assigned sequence number (0 when empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// DurableSeq returns the last sequence durable under the fsync policy.
func (l *Log) DurableSeq() uint64 { return l.synced.Load() }

// FirstSeq returns the first sequence still retained in segments.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.earliest
}

// CheckpointSeq returns the newest installed checkpoint's sequence.
func (l *Log) CheckpointSeq() uint64 { return l.ckptSeq.Load() }

// Stats is a point-in-time durability summary for /stats and experiments.
type Stats struct {
	LastSeq       uint64 `json:"last_seq"`
	DurableSeq    uint64 `json:"durable_seq"`
	FirstSeq      uint64 `json:"first_seq"`
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	Checkpoints   int64  `json:"checkpoints"`
	Segments      int    `json:"segments"`
	SizeBytes     int64  `json:"size_bytes"`
	AppendErrors  int64  `json:"append_errors"`
	// Fsyncs counts fsyncs of log segments (group commits, rotations, the
	// final seal) — not checkpoint files.
	Fsyncs int64  `json:"fsyncs"`
	Fsync  string `json:"fsync"`
}

// Stats reports the current durability counters.
func (l *Log) Stats() Stats {
	st := Stats{
		LastSeq:       l.LastSeq(),
		DurableSeq:    l.DurableSeq(),
		FirstSeq:      l.FirstSeq(),
		CheckpointSeq: l.CheckpointSeq(),
		Checkpoints:   l.checkpoints.Load(),
		AppendErrors:  l.appendErrors.Load(),
		Fsyncs:        l.fsyncs.Load(),
		Fsync:         l.opts.Fsync.String(),
	}
	if entries, err := os.ReadDir(l.dir); err == nil {
		for _, e := range entries {
			if _, ok := parseSeqName(e.Name(), "wal-", ".log"); !ok {
				continue
			}
			st.Segments++
			if info, err := e.Info(); err == nil {
				st.SizeBytes += info.Size()
			}
		}
	}
	return st
}

// ReadFrom returns up to max records with sequence ≥ from, in order, plus
// the last sequence currently readable. It returns ErrCompacted when from
// predates the retained history (the caller must re-bootstrap from a
// checkpoint).
func (l *Log) ReadFrom(from uint64, max int) ([]oplog.Record, uint64, error) {
	// Commits flush to the OS under mu, so a directory read observes
	// record-aligned data (plus possibly a torn in-flight or spilled batch,
	// which the reader stops cleanly at). Records buffered but not yet
	// committed are not readable.
	return ReadDirFrom(l.dir, from, max)
}

// Bootstrap returns the record sequence a fresh replica must apply to
// reach this log's base state (newest checkpoint records, Seq 0), plus the
// sequence number that state represents. Tail records after it are served
// by ReadFrom.
func (l *Log) Bootstrap() ([]oplog.Record, uint64, error) {
	seq, recs, err := latestCheckpoint(l.dir)
	if err != nil {
		return nil, 0, err
	}
	return recs, seq, nil
}

// TestingLimitBytes arms the crash seam: after n more bytes reach the
// active segment, the log behaves as a killed process — the batch in
// flight is torn mid-record and every later write vanishes.
func (l *Log) TestingLimitBytes(n int64) {
	l.writeBudget.Store(n)
}

// TestingBeforeCheckpointInstall makes WriteCheckpoint call fn between
// writing its temp file and renaming it into place — the window in which two
// cuts at one sequence, sharing the temp name, collide. Set before any
// concurrent use.
func (l *Log) TestingBeforeCheckpointInstall(fn func()) {
	l.testBeforeCkptInstall = fn
}

// Crashed reports whether the crash seam has tripped.
func (l *Log) Crashed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.crashed
}

// --- directory scanning (shared by Open, ScanDir, ReadDirFrom) ---

type segInfo struct {
	first uint64
	size  int64
}

// ScanDir reads the log in dir without taking ownership: newest valid
// checkpoint plus tail, tolerating (but not repairing) a torn final
// segment. This is how followers bootstrap from a leader's directory.
func ScanDir(dir string) (*Recovery, error) {
	rec, _, err := scan(dir, false)
	return rec, err
}

// scan loads the recovery view of dir. With repair set, a torn or corrupt
// tail in the final segment is physically truncated at the last clean
// record boundary; otherwise it is only skipped.
func scan(dir string, repair bool) (*Recovery, []segInfo, error) {
	segNames, err := listSeqNames(dir, "wal-", ".log")
	if err != nil {
		return nil, nil, err
	}
	ckptSeq, ckptRecs, err := latestCheckpoint(dir)
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovery{CheckpointSeq: ckptSeq, CheckpointRecords: ckptRecs}

	var segs []segInfo
	var expect uint64
	for i, name := range segNames {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		first, ok := parseSeqName(name, "wal-", ".log")
		if !ok || len(data) < segHeaderSize ||
			string(data[:8]) != string(segMagic[:]) ||
			binary.LittleEndian.Uint64(data[8:16]) != first {
			if i == len(segNames)-1 && len(data) < segHeaderSize {
				// A crash can tear the header write of a fresh segment;
				// drop the whole file.
				if repair {
					if err := os.Remove(path); err != nil {
						return nil, nil, fmt.Errorf("wal: drop torn segment: %w", err)
					}
				}
				rec.TruncatedBytes += int64(len(data))
				break
			}
			return nil, nil, fmt.Errorf("wal: segment %s: bad header", name)
		}
		if expect != 0 && first != expect {
			return nil, nil, fmt.Errorf("wal: segment %s: sequence gap (want first=%d)", name, expect)
		}
		off := segHeaderSize
		seq := first
		for off < len(data) {
			r, n, derr := oplog.Decode(data[off:])
			if derr != nil {
				if i != len(segNames)-1 {
					return nil, nil, fmt.Errorf("wal: segment %s: %v at offset %d (mid-history damage)", name, derr, off)
				}
				rec.TruncatedBytes += int64(len(data) - off)
				if repair {
					if err := os.Truncate(path, int64(off)); err != nil {
						return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
					}
				}
				data = data[:off]
				break
			}
			if r.Seq != seq {
				if i != len(segNames)-1 {
					return nil, nil, fmt.Errorf("wal: segment %s: record seq %d, want %d", name, r.Seq, seq)
				}
				rec.TruncatedBytes += int64(len(data) - off)
				if repair {
					if err := os.Truncate(path, int64(off)); err != nil {
						return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
					}
				}
				data = data[:off]
				break
			}
			if r.Seq > ckptSeq {
				rec.TailRecords = append(rec.TailRecords, r)
			}
			seq++
			off += n
		}
		if rec.FirstSeq == 0 {
			rec.FirstSeq = first
		}
		if seq > first {
			rec.LastSeq = seq - 1
		} else if rec.LastSeq < first-1 {
			rec.LastSeq = first - 1
		}
		expect = seq
		segs = append(segs, segInfo{first: first, size: int64(len(data))})
	}
	if rec.LastSeq < ckptSeq {
		rec.LastSeq = ckptSeq
	}
	if rec.FirstSeq == 0 {
		rec.FirstSeq = ckptSeq + 1
	}
	return rec, segs, nil
}

// ReadDirFrom reads up to max records with sequence ≥ from out of the
// segments in dir, plus the last sequence currently present. Readers may
// race an appending writer; a torn in-flight batch terminates the read
// cleanly. Returns ErrCompacted when from predates the retained segments.
func ReadDirFrom(dir string, from uint64, max int) ([]oplog.Record, uint64, error) {
	if from == 0 {
		from = 1
	}
	segNames, err := listSeqNames(dir, "wal-", ".log")
	if err != nil {
		return nil, 0, err
	}
	if len(segNames) == 0 {
		return nil, 0, nil
	}
	firsts := make([]uint64, len(segNames))
	for i, name := range segNames {
		f, ok := parseSeqName(name, "wal-", ".log")
		if !ok {
			return nil, 0, fmt.Errorf("wal: bad segment name %s", name)
		}
		firsts[i] = f
	}
	if from < firsts[0] {
		return nil, 0, ErrCompacted
	}
	// Start at the last segment whose first seq ≤ from.
	start := sort.Search(len(firsts), func(i int) bool { return firsts[i] > from }) - 1
	var out []oplog.Record
	var lastSeq uint64
	for i := start; i < len(segNames); i++ {
		data, err := os.ReadFile(filepath.Join(dir, segNames[i]))
		if err != nil {
			return nil, 0, fmt.Errorf("wal: %w", err)
		}
		if len(data) < segHeaderSize {
			break // freshly created, header still in flight
		}
		off := segHeaderSize
		for off < len(data) {
			r, n, derr := oplog.Decode(data[off:])
			if derr != nil {
				return out, lastSeq, nil // in-flight tail; stop cleanly
			}
			if r.Seq > lastSeq {
				lastSeq = r.Seq
			}
			if r.Seq >= from && len(out) < max {
				out = append(out, r)
			}
			off += n
		}
	}
	return out, lastSeq, nil
}

// latestCheckpoint loads the newest checkpoint in dir that validates
// end-to-end, skipping damaged ones. (0, nil, nil) when none exists.
func latestCheckpoint(dir string) (uint64, []oplog.Record, error) {
	names, err := listSeqNames(dir, "checkpoint-", ".ckpt")
	if err != nil {
		return 0, nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		seq, recs, ok := readCheckpointFile(filepath.Join(dir, names[i]))
		if ok {
			return seq, recs, nil
		}
	}
	return 0, nil, nil
}

func readCheckpointFile(path string) (uint64, []oplog.Record, bool) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < ckptHeaderSize || string(data[:8]) != string(ckptMagic[:]) {
		return 0, nil, false
	}
	seq := binary.LittleEndian.Uint64(data[8:16])
	count := binary.LittleEndian.Uint64(data[16:24])
	if count > uint64(len(data)) { // cheap sanity bound before allocating
		return 0, nil, false
	}
	recs := make([]oplog.Record, 0, count)
	off := ckptHeaderSize
	for uint64(len(recs)) < count {
		r, n, derr := oplog.Decode(data[off:])
		if derr != nil {
			return 0, nil, false
		}
		recs = append(recs, r)
		off += n
	}
	if off != len(data) {
		return 0, nil, false
	}
	return seq, recs, true
}

func listSeqNames(dir, prefix, suffix string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSeqName(e.Name(), prefix, suffix); ok {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := parseSeqName(names[i], prefix, suffix)
		b, _ := parseSeqName(names[j], prefix, suffix)
		return a < b
	})
	return names, nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		closeQuiet(f)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		closeQuiet(f)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("wal: sync dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: %w", cerr)
	}
	return nil
}

func closeQuiet(f *os.File) {
	if err := f.Close(); err != nil {
		_ = err // best-effort close on an error path; primary error wins
	}
}
