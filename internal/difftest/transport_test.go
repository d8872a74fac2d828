package difftest

import (
	"fmt"
	"testing"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/rpcbatch"
)

// batchedClusterProvider runs the refine step on an in-process cluster whose
// workers resolve epoch pins from the shared index — the batched pipeline
// with exact snapshot isolation.
func batchedClusterProvider(workers int) func(tb testing.TB, x *dtlp.Index) (core.PartialProvider, func()) {
	return func(tb testing.TB, x *dtlp.Index) (core.PartialProvider, func()) {
		tb.Helper()
		c, err := cluster.New(x, workers)
		if err != nil {
			tb.Fatalf("cluster: %v", err)
		}
		return c, c.Close
	}
}

// batchedTCPProvider serves the refine step over real TCP worker servers
// (multiplexed framing, pool size > 1, cross-query batching).  The workers
// share the index's partition, so updates applied to the index are visible to
// them the way the in-process cluster's are.
func batchedTCPProvider(workers, pool int) func(tb testing.TB, x *dtlp.Index) (core.PartialProvider, func()) {
	return func(tb testing.TB, x *dtlp.Index) (core.PartialProvider, func()) {
		tb.Helper()
		part := x.Partition()
		var servers []*cluster.Server
		var remotes []*cluster.RemoteWorker
		for w := 0; w < workers; w++ {
			worker := cluster.NewWorker(w, part, cluster.OwnedBy(w, part.NumSubgraphs(), workers, 1))
			// Epoch pins resolve against the shared index, so even the TCP
			// transport serves frozen weights for retained epochs.
			worker.SetViewResolver(x.ViewAt)
			srv, err := cluster.Serve("127.0.0.1:0", worker)
			if err != nil {
				tb.Fatalf("serve: %v", err)
			}
			servers = append(servers, srv)
			rw, err := cluster.DialPool(srv.Addr(), cluster.ClientOptions{PoolSize: pool})
			if err != nil {
				tb.Fatalf("dial: %v", err)
			}
			remotes = append(remotes, rw)
		}
		bp := cluster.NewBatchedRemoteProvider(remotes, rpcbatch.Options{})
		cleanup := func() {
			bp.Close()
			for _, rw := range remotes {
				rw.Close()
			}
			for _, srv := range servers {
				srv.Close()
			}
		}
		return bp, cleanup
	}
}

// TestDifferentialGridBatchedTransport re-runs a cross-section of the
// differential grid with the refine step on the batched transports: the
// in-process batched cluster and real TCP workers with pool size > 1.  The
// per-query answers must stay pinned to exact Yen regardless of how the
// pairs travel.
func TestDifferentialGridBatchedTransport(t *testing.T) {
	providers := []struct {
		name  string
		build func(tb testing.TB, x *dtlp.Index) (core.PartialProvider, func())
	}{
		{"cluster", batchedClusterProvider(3)},
		{"tcp-pool2", batchedTCPProvider(2, 2)},
	}
	for _, pv := range providers {
		for _, directed := range []bool{false, true} {
			for _, k := range []int{1, 8} {
				p := Params{Directed: directed, K: k, Xi: 2, Seed: 7*100 + int64(k), Provider: pv.build}
				name := fmt.Sprintf("%s/directed=%v/k=%d", pv.name, directed, k)
				t.Run(name, func(t *testing.T) {
					Check(t, p)
				})
			}
		}
	}
}

// TestDifferentialConcurrentBatchedTransport floods the serve layer while
// update batches land, with the refine step on a three-worker cluster:
// queries pinned to different epochs ship their shares to the same workers
// at once (mixed-epoch concurrent requests), and every result must still
// match Yen on the frozen weights of the epoch it reports.
func TestDifferentialConcurrentBatchedTransport(t *testing.T) {
	t.Run("cluster/undirected", func(t *testing.T) {
		CheckConcurrent(t, ConcurrentParams{Seed: 42, Provider: batchedClusterProvider(3)})
	})
	t.Run("cluster/directed", func(t *testing.T) {
		CheckConcurrent(t, ConcurrentParams{Directed: true, Seed: 43, Provider: batchedClusterProvider(3)})
	})
	t.Run("tcp-pool2/undirected", func(t *testing.T) {
		if testing.Short() {
			t.Skip("TCP concurrent audit runs in the full lane")
		}
		CheckConcurrent(t, ConcurrentParams{Seed: 44, Provider: batchedTCPProvider(2, 2)})
	})
}

// TestDifferentialTopologyBatchedTransport runs the topology lane with the
// refine step on the in-process batched cluster and no topology hook: the
// cluster must pick up every epoch's partition, including one that opens a
// subgraph, from the index alone, and every answer must equal Yen at its
// epoch.
func TestDifferentialTopologyBatchedTransport(t *testing.T) {
	for _, directed := range []bool{false, true} {
		p := TopologyParams{Directed: directed, Seed: 211, Provider: batchedClusterProvider(3)}
		t.Run(fmt.Sprintf("cluster/directed=%v", directed), func(t *testing.T) {
			CheckTopology(t, p)
		})
	}
}
