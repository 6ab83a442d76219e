// Command ssrq-query answers individual SSRQ queries over a saved dataset
// (or a freshly synthesized one) and prints the ranked result with its
// social/spatial decomposition and execution statistics.
//
// Usage:
//
//	ssrq-query -data gowalla.gob -q 123 -k 10 -alpha 0.3
//	ssrq-query -preset twitter -n 5000 -q 7 -algo TSA
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ssrq"
)

// run is the whole program minus process concerns: it parses args, answers
// the query, writes the report to stdout and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssrq-query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		data   = fs.String("data", "", "dataset file written by ssrq-datagen")
		preset = fs.String("preset", "gowalla", "synthesize this preset when -data is not given")
		n      = fs.Int("n", 5000, "synthetic dataset size when -data is not given")
		seed   = fs.Int64("seed", 42, "seed for synthesis and preprocessing")
		q      = fs.Int("q", -1, "query user (default: first located user)")
		k      = fs.Int("k", 10, "result size")
		alpha  = fs.Float64("alpha", 0.3, "social/spatial preference in (0,1)")
		algo   = fs.String("algo", "AIS", "algorithm: "+algoNames())
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	a, err := ssrq.ParseAlgorithm(*algo)
	if err != nil {
		return fail(stderr, err)
	}

	var ds *ssrq.Dataset
	if *data != "" {
		ds, err = ssrq.LoadDataset(*data)
	} else {
		ds, err = ssrq.Synthesize(*preset, *n, *seed)
	}
	if err != nil {
		return fail(stderr, err)
	}

	eng, err := ssrq.NewEngine(ds, &ssrq.Options{Seed: *seed})
	if err != nil {
		return fail(stderr, err)
	}

	query := ssrq.UserID(*q)
	if *q < 0 {
		for v := 0; v < ds.NumUsers(); v++ {
			if ds.Located(ssrq.UserID(v)) {
				query = ssrq.UserID(v)
				break
			}
		}
	}

	res, err := eng.TopKWith(a, query, *k, *alpha)
	if err != nil {
		return fail(stderr, err)
	}

	st := ds.Stats()
	fmt.Fprintf(stdout, "dataset %s: %d users, %d edges, %d located\n", st.Name, st.NumVertices, st.NumEdges, st.NumLocated)
	fmt.Fprintf(stdout, "query user %d, k=%d, alpha=%.2f, algorithm %v\n\n", query, *k, *alpha, a)
	fmt.Fprintf(stdout, "%4s  %8s  %10s  %10s  %10s\n", "rank", "user", "f", "social p", "spatial d")
	for i, e := range res.Entries {
		fmt.Fprintf(stdout, "%4d  %8d  %10.6f  %10.6f  %10.6f\n", i+1, e.ID, e.F, e.P, e.D)
	}
	s := res.Stats
	fmt.Fprintf(stdout, "\nstats: social pops=%d (reverse=%d) spatial pops=%d index pops=%d/%d "+
		"dist calls=%d (bounded stops=%d, restarts=%d) beta deferrals=%d pop ratio=%.4f\n",
		s.SocialPops, s.ReversePops, s.SpatialPops, s.IndexUserPops, s.IndexCellPops,
		s.GraphDistCalls, s.BoundedStops, s.GraphDistRestarts, s.Reinserts, s.PopRatio(ds.NumUsers()))
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// algoNames lists the served algorithms in enum order.
func algoNames() string {
	var names []string
	for _, a := range ssrq.Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, "|")
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "ssrq-query:", err)
	return 1
}
