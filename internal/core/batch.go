package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ssrq/internal/graph"
)

// BatchQuery is one query of a batch: an algorithm, a query user and the
// ranking parameters.
type BatchQuery struct {
	Algo   Algorithm
	Q      graph.VertexID
	Params Params
}

// BatchResult pairs one batch query's result with its error; exactly one of
// the two is set. Elapsed is the wall-clock time of this query alone, so
// batch callers can derive latency percentiles, not just throughput.
type BatchResult struct {
	Result  *Result
	Err     error
	Elapsed time.Duration
}

// RunBatch answers a batch of queries on a pool of workers and returns the
// outcomes in input order — the one implementation of the batch contract,
// behind the sharded engine's QueryBatch and the tests' single-index
// reference (their clamping and error semantics must never drift apart;
// TestQueryBatchClampsBothFlavors pins both). workers <= 0 selects
// GOMAXPROCS; worker counts beyond the batch size clamp to it. A failed
// query records its error in its slot without affecting the rest of the
// batch.
func RunBatch(queries []BatchQuery, workers int, query func(BatchQuery) (*Result, error)) []BatchResult {
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	run := func(i int) {
		start := time.Now()
		out[i].Result, out[i].Err = query(queries[i])
		out[i].Elapsed = time.Since(start)
	}
	if workers == 1 {
		for i := range queries {
			run(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return out
}
