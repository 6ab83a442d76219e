// Command ssrq-server exposes SSRQ over HTTP: a minimal location-based
// social search service backed by the AIS index, with live location updates
// (the workload the paper's index maintenance targets, §5.1). Queries are
// lock-free against published epoch snapshots, so queries and moves
// interleave freely without blocking each other; concurrent /query
// connections are how queries run in parallel.
//
// Endpoints:
//
//	GET  /query?q=<user>&k=<int>&alpha=<float>[&algo=AIS]   ranked result
//	GET  /user/<id>                                          location + degree
//	POST /move   {"id":123,"x":1.5,"y":2.5}                  one update (sync epoch)
//	POST /moves  {"moves":[...],"flush":false}               bulk updates (one batch on the write queue)
//	POST /unlocate {"id":123}                                drop location
//	GET  /stats                                              dataset + epoch/update stats
//	GET  /wal/bootstrap, /wal/stream                         journal replication feed
//	GET  /healthz                                            liveness
//
// Start with a saved dataset or a synthesized one:
//
//	ssrq-server -data fsq.gob -addr :8080
//	ssrq-server -preset gowalla -n 20000
//	ssrq-server -preset gowalla -n 100000 -shards 8   # spatially partitioned
//
// -shards N is the number of spatial shards (default 1): with several, a
// query is one search over every per-region index at once and updates route
// to the owning shard; /stats has one entry per shard at every count.
//
// With -wal-dir the engine is durable: every mutation is journaled to a
// write-ahead log before it applies, a restart recovers the journaled state
// (newest checkpoint + tail replay), and the /wal endpoints serve the
// journal to followers:
//
//	ssrq-server -preset gowalla -n 20000 -wal-dir /var/lib/ssrq/wal
//
// With -follower-of the server is a read-only replica instead: it
// bootstraps from the named leader's newest checkpoint, tails its journal,
// answers queries at bounded replication lag (reported in /stats), and
// returns 403 for writes:
//
//	ssrq-server -preset gowalla -n 20000 -follower-of http://leader:8080
//
// The replica must be started over the leader's construction dataset (same
// -data file, or same -preset/-n/-seed).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"ssrq"
	"ssrq/internal/follower"
	"ssrq/internal/httpapi"
)

// serverConfig is the parsed command line.
type serverConfig struct {
	data   string
	preset string
	n      int
	seed   int64
	addr   string
	shards int

	walDir     string
	fsync      string
	ckptEvery  int64
	keepSegs   bool
	followerOf string
	pollEvery  time.Duration
}

// parseFlags parses the command line; separated from main so tests can
// exercise flag handling without exiting the process.
func parseFlags(args []string, stderr io.Writer) (*serverConfig, error) {
	fs := flag.NewFlagSet("ssrq-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &serverConfig{}
	fs.StringVar(&cfg.data, "data", "", "dataset file written by ssrq-datagen")
	fs.StringVar(&cfg.preset, "preset", "gowalla", "synthesize this preset when -data is not given")
	fs.IntVar(&cfg.n, "n", 10000, "synthetic dataset size when -data is not given")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed for synthesis and preprocessing")
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.shards, "shards", 1, "number of spatial shards the users are split across (a query searches them all at once, one /stats entry each); 1 = one shard")
	fs.StringVar(&cfg.walDir, "wal-dir", "", "journal every mutation to a write-ahead log in this directory and recover from it on start (empty = not durable)")
	fs.StringVar(&cfg.fsync, "fsync", "batch", "WAL commit policy: batch (group-committed fsync before a write returns), interval, or off")
	fs.Int64Var(&cfg.ckptEvery, "checkpoint-every", 100000, "write a background WAL checkpoint after this many journaled ops (0 = never)")
	fs.BoolVar(&cfg.keepSegs, "wal-keep", false, "retain checkpointed-away WAL segments (keeps the full history replayable for file-tailing followers)")
	fs.StringVar(&cfg.followerOf, "follower-of", "", "run as a read-only replica of the leader server at this base URL (e.g. http://leader:8080)")
	fs.DurationVar(&cfg.pollEvery, "poll-interval", 20*time.Millisecond, "replica tail poll interval (with -follower-of)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.walDir != "" && cfg.followerOf != "" {
		return nil, fmt.Errorf("-wal-dir and -follower-of are mutually exclusive: a replica consumes a journal, it does not write one")
	}
	return cfg, nil
}

// loadDataset loads or synthesizes the configured dataset.
func loadDataset(cfg *serverConfig) (*ssrq.Dataset, error) {
	if cfg.data != "" {
		return ssrq.LoadDataset(cfg.data)
	}
	return ssrq.Synthesize(cfg.preset, cfg.n, cfg.seed)
}

// buildServer loads or synthesizes the dataset and builds the HTTP handler
// in the configured role — standalone, durable leader, or read-only
// follower; separated from main so tests can drive the full stack through
// httptest. The cleanup func releases the engine (and follower tail loop).
func buildServer(cfg *serverConfig) (*httpapi.Server, *ssrq.Dataset, func(), error) {
	ds, err := loadDataset(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := &ssrq.Options{Seed: cfg.seed, Shards: cfg.shards}

	if cfg.followerOf != "" {
		f, err := follower.New(ds, follower.HTTPSource{BaseURL: cfg.followerOf}, &follower.Options{
			Engine:       opts,
			PollInterval: cfg.pollEvery,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		srv := httpapi.New(f.Engine())
		srv.SetFollower(func() (uint64, uint64) {
			st := f.Stats()
			return st.AppliedSeq, st.LeaderSeq
		})
		return srv, ds, f.Close, nil
	}

	if cfg.walDir != "" {
		opts.Durability = &ssrq.DurabilityOptions{
			Dir:                cfg.walDir,
			Fsync:              cfg.fsync,
			CheckpointEveryOps: cfg.ckptEvery,
			KeepSegments:       cfg.keepSegs,
		}
		eng, rec, err := ssrq.OpenOrRecover(ds, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		log.Printf("ssrq-server: recovered to seq %d (checkpoint@%d: %d ops, tail: %d ops, %d torn bytes dropped) in %v",
			rec.LastSeq, rec.CheckpointSeq, rec.CheckpointOps, rec.ReplayedOps, rec.TruncatedBytes, rec.Elapsed)
		srv := httpapi.New(eng)
		return srv, ds, eng.Close, nil
	}

	eng, err := ssrq.NewEngine(ds, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	srv := httpapi.New(eng)
	return srv, ds, eng.Close, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	srv, ds, cleanup, err := buildServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssrq-server:", err)
		os.Exit(1)
	}
	defer cleanup()
	st := ds.Stats()
	role := "standalone"
	switch {
	case cfg.followerOf != "":
		role = "follower of " + cfg.followerOf
	case cfg.walDir != "":
		role = "durable leader (wal: " + cfg.walDir + ", fsync: " + cfg.fsync + ")"
	}
	log.Printf("ssrq-server: %s (%d users, %d edges) listening on %s (%d shard(s), %s)",
		st.Name, st.NumVertices, st.NumEdges, cfg.addr, cfg.shards, role)
	if err := http.ListenAndServe(cfg.addr, srv); err != nil {
		log.Fatal(err)
	}
}
