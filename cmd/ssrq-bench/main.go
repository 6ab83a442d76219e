// Command ssrq-bench regenerates every table and figure of the paper's
// evaluation section (§6) on synthetic paper-substitute datasets and prints
// the same rows/series the paper reports. Timings of the serving layer come
// from the benchmark in bench/, not from here.
//
// Usage:
//
//	ssrq-bench -exp all -scale medium            # everything, default sizes
//	ssrq-bench -exp fig8 -scale small            # one figure
//	ssrq-bench -exp fig9 -queries 20             # fewer queries per point
//	ssrq-bench -exp table2 -json out.json        # also emit a machine-readable report
//
// Experiments: table2 fig7a fig7b fig8 fig9 fig10 fig11 fig12 fig13 fig14a
// fig14b diag all. Scales: small | medium | large (see internal/exp).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ssrq/internal/exp"
)

// run is the whole program minus process concerns; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssrq-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "all", "experiment id (table2, fig7a..fig14b, diag, all)")
		scale    = fs.String("scale", "medium", "dataset scale: small|medium|large")
		seed     = fs.Int64("seed", 42, "generator seed")
		queries  = fs.Int("queries", 0, "override the number of queries per measurement")
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
	fmt.Fprintf(stdout, "ssrq-bench: exp=%s scale=%s seed=%d queries=%d\n",
		*expID, sc.Name, *seed, sc.NumQueries)
	fmt.Fprintf(stdout, "defaults (Table 3): k=%d alpha=%.1f s=%d M=%d levels=%d\n",
		exp.DefaultK, exp.DefaultAlpha, exp.DefaultS, exp.DefaultM, exp.DefaultLevels)

	suite := exp.NewSuite(sc, *seed, stdout)
	start := time.Now()
	if err := suite.Run(*expID); err != nil {
		fmt.Fprintln(stderr, "ssrq-bench:", err)
		return 1
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "\ncompleted in %v (%d measurements)\n", elapsed.Round(time.Millisecond), len(suite.Measurements))
	if *jsonPath != "" {
		report := suite.Report(*expID, elapsed)
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
