package ssrq

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Kill-9 differential test: a child process (this test binary re-exec'd)
// drives synchronous churn against a durable engine, printing each op as it
// is acknowledged; the parent SIGKILLs it mid-stream, recovers from the WAL
// directory, and requires (a) nothing acknowledged was lost and (b) the
// recovered world exactly matches a twin that applied the recovered prefix.
// Unlike the in-process seam (durability_test.go), this loses the real
// thing: whatever a dead process never handed to the kernel.

const (
	crashChildEnv    = "SSRQ_CRASH_CHILD"
	crashDirEnv      = "SSRQ_CRASH_DIR"
	crashShardsEnv   = "SSRQ_CRASH_SHARDS"
	crashKillUsers   = 400
	crashKillDSSeed  = 42
	crashKillOpsSeed = 77
	crashKillTotal   = 200000 // far more than the parent lets run
)

func TestCrashKill9Differential(t *testing.T) {
	if os.Getenv(crashChildEnv) == "1" {
		runCrashKillChild(t)
		return
	}
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	// The subtest names are pinned by the tier-1 floor list and predate the
	// single engine: "monolith" is the default shard count (one shard),
	// "sharded" several — one implementation either way.
	for _, tc := range []struct {
		name   string
		shards int
	}{{"monolith", 0}, {"sharded", 4}} {
		t.Run(tc.name, func(t *testing.T) { runCrashKillParent(t, tc.shards) })
	}
}

// runCrashKillChild is the victim: build the durable engine, churn forever,
// report progress. It never exits on its own within the parent's patience.
func runCrashKillChild(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	shards, _ := strconv.Atoi(os.Getenv(crashShardsEnv)) // errok
	ds, err := Synthesize("gowalla", crashKillUsers, crashKillDSSeed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, &Options{
		Shards:     shards,
		Durability: &DurabilityOptions{Dir: dir, Fsync: "batch"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fmt.Println("ready")
	for i, op := range genCrashOps(ds, crashKillTotal, crashKillOpsSeed) {
		if err := op.apply(eng); err != nil {
			t.Fatal(err)
		}
		// The op returned: with the "batch" policy its record is fsynced.
		fmt.Println("acked", i+1)
	}
}

func runCrashKillParent(t *testing.T, shards int) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashKill9Differential$")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1",
		crashDirEnv+"="+dir,
		crashShardsEnv+"="+strconv.Itoa(shards),
	)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Track acknowledgements; once enough churn has landed, kill -9.
	const killAfter = 500
	lastAcked := 0
	sc := bufio.NewScanner(out)
	deadline := time.Now().Add(2 * time.Minute)
	for sc.Scan() {
		line := sc.Text()
		if n, ok := strings.CutPrefix(line, "acked "); ok {
			if v, err := strconv.Atoi(strings.TrimSpace(n)); err == nil {
				lastAcked = v
			}
		}
		if lastAcked >= killAfter || time.Now().After(deadline) {
			break
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	_ = cmd.Wait() // errok: the child was killed; a non-zero exit is the point
	if lastAcked < killAfter {
		t.Fatalf("child only acked %d ops before dying on its own", lastAcked)
	}

	// Recover. Every acknowledged op was fsynced before its ack line was
	// printed, so the journal must hold at least lastAcked records.
	ds, err := Synthesize("gowalla", crashKillUsers, crashKillDSSeed)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Shards: shards, Durability: &DurabilityOptions{Dir: dir, Fsync: "off"}}
	rec, info, err := OpenOrRecover(ds, opts)
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer rec.Close()
	applied := int(info.LastSeq)
	if applied < lastAcked {
		t.Fatalf("lost acknowledged writes: recovered %d ops, child acked %d", applied, lastAcked)
	}
	if applied > crashKillTotal {
		t.Fatalf("recovered %d ops, child only drives %d", applied, crashKillTotal)
	}
	t.Logf("killed at ack %d, recovered %d ops (truncated %d torn bytes)",
		lastAcked, applied, info.TruncatedBytes)

	// Twin: the child's ops are synchronous (one record each), so the
	// recovered position IS the driver prefix length.
	twin, err := NewEngine(ds, &Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for _, op := range genCrashOps(ds, applied, crashKillOpsSeed) {
		if err := op.apply(twin); err != nil {
			t.Fatal(err)
		}
	}
	requireSameWorld(t, rec, twin)
	requireSameResults(t, rec, twin, 31)
}
