package bench

import (
	"fmt"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/dtlp"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/serve"
	"kspdg/internal/workload"
)

// rpcInflight is the depth of the concurrent query pool the rpc experiment
// runs under — the regime where cross-query batching pays.
const rpcInflight = 8

// RPCPipeline measures the shipped master↔worker request path on a concurrent
// mixed workload, served by real TCP worker servers on loopback: multiplexed
// request-ID framing over a small connection pool per worker, with per-worker
// rpcbatch queues that coalesce and dedupe pair requests across concurrent
// queries.
//
// The workload is the serve layer's concurrent path: a pool of rpcInflight
// query workers drains randomized queries while weight-update batches are
// broadcast to the workers in between.
func (s *Suite) RPCPipeline() (*Table, error) {
	table := &Table{
		Columns: []string{"elapsed", "queries/s", "rpc_batches", "pairs_coalesced", "dedup_hits", "pair_cache_hits"},
	}
	// Parallelism 0: each worker's executor defaults to GOMAXPROCS, the
	// deployment default (see the scaling experiment for the sweep).
	el, st, err := s.runRPC(0)
	if err != nil {
		return nil, err
	}
	table.AddRow(el, float64(s.Nq)/el.Seconds(), st.RPCBatches, st.PairsCoalesced, st.DedupHits, st.PairCacheHits)
	table.Notes = append(table.Notes,
		fmt.Sprintf("%d TCP workers on loopback, %d-deep query pool, mixed hotspot workload: %d queries (k=%d) + 3 update batches",
			s.Workers, rpcInflight, s.Nq, s.K),
		"coalesced flushes amortise the wire and the epoch-pinned pair memo removes the repeated",
		"subgraph searches that overlapping queries would otherwise recompute.")
	return table, nil
}

// runRPC deploys the TCP pipeline end to end and replays the workload.
// parallelism is each worker's partial-KSP executor width and the index's
// update sharding width (0 = GOMAXPROCS).
func (s *Suite) runRPC(parallelism int) (time.Duration, serve.Stats, error) {
	ds, err := workload.BuiltinDataset("NY", s.Scale)
	if err != nil {
		return 0, serve.Stats{}, err
	}
	// Large subgraphs put the deployment in the paper's query-cost regime:
	// the skeleton (filter step) shrinks while each partial-KSP search
	// (refine step) grows, so the master↔worker request path dominates query
	// cost.
	z := ds.DefaultZ * 4
	part, err := partition.PartitionGraph(ds.Graph, z)
	if err != nil {
		return 0, serve.Stats{}, err
	}
	index, err := dtlp.Build(part, dtlp.Config{Xi: s.Xi, UpdateParallelism: parallelism})
	if err != nil {
		return 0, serve.Stats{}, err
	}

	// One TCP worker server per slot, each owning a round-robin share of the
	// subgraphs.  The workers resolve epoch pins against the master's
	// retained views (like the in-process cluster), so epoch-pinned requests
	// are answered exactly and the provider may memoize them.
	var servers []*cluster.Server
	var remotes []*cluster.RemoteWorker
	shutdown := func() {
		for _, rw := range remotes {
			rw.Close()
		}
		for _, srv := range servers {
			srv.Close()
		}
	}
	for w := 0; w < s.Workers; w++ {
		var owned []partition.SubgraphID
		for i := 0; i < part.NumSubgraphs(); i++ {
			if i%s.Workers == w {
				owned = append(owned, partition.SubgraphID(i))
			}
		}
		worker := cluster.NewWorker(w, part, owned)
		worker.SetViewResolver(index.ViewAt)
		worker.SetParallelism(parallelism)
		srv, err := cluster.Serve("127.0.0.1:0", worker)
		if err != nil {
			shutdown()
			return 0, serve.Stats{}, err
		}
		servers = append(servers, srv)
	}
	for _, srv := range servers {
		rw, err := cluster.DialPool(srv.Addr(), cluster.ClientOptions{PoolSize: 2})
		if err != nil {
			shutdown()
			return 0, serve.Stats{}, err
		}
		remotes = append(remotes, rw)
	}
	// The memo is opted in explicitly: these workers resolve epoch pins, so an
	// epoch-pinned answer really is immutable.
	provider := cluster.NewBatchedRemoteProvider(remotes, rpcbatch.Options{CacheCapacity: 4096})
	server := serve.New(index, provider, serve.Options{
		Workers: rpcInflight,
		Engine:  s.engineOpts(),
	})

	// Commute-shaped skew: many distinct sources head for a few hub
	// destinations, so concurrent queries share refine pairs without being
	// identical (identical queries would be absorbed by the serve layer's
	// query cache).
	queries := workload.NewQueryGenerator(ds.Graph.NumVertices(), s.Seed).HotspotBatch(s.Nq, 8, 0.9)
	sc := workload.GenerateMixedWith(ds.Graph, queries, 3, s.K, 0.2, 0.3, s.Seed)
	report, err := server.RunScenario(sc)
	if err == nil {
		if errs := report.Errs(); len(errs) > 0 {
			err = errs[0]
		}
	}
	stats := server.Stats()
	server.Close()
	provider.Close()
	shutdown()
	if err != nil {
		return 0, serve.Stats{}, err
	}
	return report.Elapsed, stats, nil
}
