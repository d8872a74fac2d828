package bench

import (
	"fmt"
	"runtime"
	"time"
)

// Scaling sweeps the worker parallelism over the batched rpc workload: the
// same TCP deployment, query pool and mixed workload as the rpc experiment,
// with every worker's partial-KSP executor (and the index's update sharding)
// pinned to 1, 2, 4 and 8 goroutines.  The answers are bit-identical at every
// width, so the sweep isolates pure CPU scaling: on a multi-core host
// queries/s should grow towards the core count, while on a 1-CPU host every
// row should match parallelism 1 within noise (the executor adds no work,
// only concurrency).
func (s *Suite) Scaling() (*Table, error) {
	table := &Table{
		Columns: []string{"parallelism", "elapsed", "queries/s", "speedup_vs_1"},
	}
	var base time.Duration
	for _, par := range []int{1, 2, 4, 8} {
		el, _, err := s.runRPC(par)
		if err != nil {
			return nil, fmt.Errorf("parallelism %d: %w", par, err)
		}
		if base == 0 {
			base = el
		}
		table.AddRow(par, el, float64(s.Nq)/el.Seconds(), base.Seconds()/el.Seconds())
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("%d TCP workers on loopback, %d-deep query pool, batched transport, mixed hotspot workload: %d queries (k=%d) + 3 update batches",
			s.Workers, rpcInflight, s.Nq, s.K),
		fmt.Sprintf("host has GOMAXPROCS=%d; speedups beyond that are not expected", runtime.GOMAXPROCS(0)),
		"each worker fans a request's pairs (and heavy pairs' per-subgraph Yen searches) across the configured",
		"number of goroutines; update batches shard bound refreshes across affected subgraphs at the same width.")
	return table, nil
}
