// Command bench is the repository's one benchmark: it builds each workload's
// dataset and engine the way cmd/ssrq-server does, serves it in-process on a
// loopback socket, drives it over real connections, checks the answers
// against the by-definition oracle and prints every metric by name.
//
//	bash bench/run.sh --workload read_large --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload read_large --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh --compare bench/results/baseline.json bench/out
//
// --trace 0 reports the end-to-end metrics with no recorder in the path;
// --trace 1 reports the per-layer metrics and writes the spans to
// bench/out/trace-<workload>.json. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cfg := runConfig{setups: 5, warm: time.Second}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (read_large, read_sharded, mixed_durable, ingest_recover)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the op lists (the dataset is fixed)")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed window")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, recorder off; 1: per-layer metrics from a traced pass")
	fs.BoolVar(&cfg.smoke, "smoke", false, "shrink the dataset to 800 users (harness check, not a measurement)")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for reports, traces and temporary WAL directories")
	cmp := fs.Bool("compare", false, "compare two sets of reports: --compare OLD NEW (files or directories)")
	merge := fs.Bool("merge", false, "print the reports in the given files or directories as one JSON array")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "metric declarations and bounds, for --compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *cmp:
		return compareMain(*benchFile, fs.Args())
	case *merge:
		return mergeMain(fs.Args())
	}
	if cfg.trace != 0 && cfg.trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --trace is 0 or 1 and --seconds is positive")
		return 2
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("report-%s-t%d-s%d.json", rep.Workload, rep.Trace, rep.Seed))
	if err := rep.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func compareMain(benchFile string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: --compare takes OLD and NEW")
		return 2
	}
	bf, err := loadBenchmarkFile(benchFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	old, err := loadReports(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := loadReports(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compare(os.Stdout, bf, old, cur) {
		return 1
	}
	return 0
}

func mergeMain(args []string) int {
	var all []Report
	for _, a := range args {
		rs, err := loadReports(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		all = append(all, rs...)
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%s\n", b)
	return 0
}
