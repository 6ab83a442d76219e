// Command ssrq-bench regenerates every table and figure of the paper's
// evaluation section (§6) on synthetic paper-substitute datasets and prints
// the same rows/series the paper reports. It also measures the concurrent
// serving layer: batched queries (-exp throughput) and query latency under
// sustained location churn (-exp churn), both reporting p50/p95/p99.
//
// Usage:
//
//	ssrq-bench -exp all -scale medium            # everything, default sizes
//	ssrq-bench -exp fig8 -scale small -ch        # one figure, with CH variants
//	ssrq-bench -exp throughput -parallel 8       # batched queries/sec, 8 workers
//	ssrq-bench -exp churn -movers 0,2,8          # latency vs mover count
//	ssrq-bench -exp churn -mrate 500             # throttle movers to 500 moves/s each
//	ssrq-bench -exp socialchurn -erate 0,500,5000 # latency vs edge-update rate
//	ssrq-bench -exp shard -shards 1,4,16          # sharded query latency + social pops
//	ssrq-bench -exp shard -skew -shards 16        # skewed migration + online rebalance
//	ssrq-bench -exp subscribe -subs 2000          # standing top-k subscriptions: delta latency + skip rate
//	ssrq-bench -exp recover                       # WAL churn cost, crash recovery speed, follower tail (self-checking)
//	ssrq-bench -exp throughput -json out.json     # also emit a machine-readable report
//
// Experiments: table2 fig7a fig7b fig8 fig9 fig10 fig11 fig12 fig13 fig14a
// fig14b throughput churn socialchurn shard subscribe recover all. Scales: small |
// medium | large (see internal/exp).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ssrq/internal/exp"
)

// parseMovers parses a comma-separated list of mover counts.
func parseMovers(raw string) ([]int, error) {
	if raw == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(raw, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad -movers entry %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRates parses a comma-separated list of edge-update rates (ops/sec;
// 0 = off, negative = unthrottled).
func parseRates(raw string) ([]float64, error) {
	if raw == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(raw, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -erate entry %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseShards parses a comma-separated list of shard counts.
func parseShards(raw string) ([]int, error) {
	if raw == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(raw, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -shards entry %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// run is the whole program minus process concerns; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssrq-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "all", "experiment id (table2, fig7a..fig14b, throughput, filter, recover, all)")
		scale    = fs.String("scale", "medium", "dataset scale: small|medium|large")
		seed     = fs.Int64("seed", 42, "generator seed")
		withCH   = fs.Bool("ch", false, "include the SFA-CH/SPA-CH/TSA-CH variants in fig8 (slow preprocessing)")
		queries  = fs.Int("queries", 0, "override the number of queries per measurement")
		parallel = fs.Int("parallel", 0, "worker count for -exp throughput (0 = GOMAXPROCS)")
		movers   = fs.String("movers", "", "comma-separated mover counts for -exp churn (default 0,1,4)")
		mrate    = fs.Float64("mrate", 0, "moves/sec per mover for -exp churn (0 = unthrottled)")
		erate    = fs.String("erate", "", "comma-separated edge-update rates/sec for -exp socialchurn (0 = off, negative = unthrottled; default 0,200,2000)")
		shards   = fs.String("shards", "", "comma-separated shard counts for -exp shard (default 1,2,4,8; 16 with -skew)")
		skew     = fs.Bool("skew", false, "run -exp shard as the skewed-migration cell: hotspot drift + automatic online rebalance")
		subs     = fs.Int("subs", 0, "standing-subscription count for -exp subscribe (default 1000, capped by the located population)")
		jsonPath = fs.String("json", "", "also write every measurement as a JSON report to this path (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sc, err := exp.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *queries > 0 {
		sc.NumQueries = *queries
	}
	moverCounts, err := parseMovers(*movers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	edgeRates, err := parseRates(*erate)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	shardCounts, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	fmt.Fprintf(stdout, "ssrq-bench: exp=%s scale=%s seed=%d queries=%d ch=%v\n",
		*expID, sc.Name, *seed, sc.NumQueries, *withCH)
	fmt.Fprintf(stdout, "defaults (Table 3): k=%d alpha=%.1f s=%d M=%d levels=%d\n",
		exp.DefaultK, exp.DefaultAlpha, exp.DefaultS, exp.DefaultM, exp.DefaultLevels)

	suite := exp.NewSuite(sc, *seed, stdout)
	suite.Parallel = *parallel
	suite.ChurnMovers = moverCounts
	suite.ChurnRate = *mrate
	suite.EdgeRates = edgeRates
	suite.ShardCounts = shardCounts
	suite.Skew = *skew
	suite.Subscribers = *subs
	start := time.Now()
	if err := suite.Run(*expID, *withCH); err != nil {
		fmt.Fprintln(stderr, "ssrq-bench:", err)
		return 1
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "\ncompleted in %v (%d measurements)\n", elapsed.Round(time.Millisecond), len(suite.Measurements))
	if *jsonPath != "" {
		report := suite.Report(*expID, *withCH, elapsed)
		if *jsonPath == "-" {
			if err := report.WriteJSON(stdout); err != nil {
				fmt.Fprintln(stderr, "ssrq-bench:", err)
				return 1
			}
		} else {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintln(stderr, "ssrq-bench:", err)
				return 1
			}
			if err := report.WriteJSON(f); err != nil {
				f.Close()
				fmt.Fprintln(stderr, "ssrq-bench:", err)
				return 1
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "ssrq-bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "json report written to %s\n", *jsonPath)
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
