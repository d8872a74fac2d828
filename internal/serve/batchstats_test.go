package serve

import (
	"context"
	"sync"
	"testing"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/testutil"
	"kspdg/internal/workload"
)

// TestStatsExposeBatchCounters serves concurrent queries over a batching
// cluster provider and checks the provider's batching counters surface in
// serve.Stats.
func TestStatsExposeBatchCounters(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := New(x, c, Options{Workers: 4, CacheCapacity: -1})
	defer s.Close()

	queries := workload.NewQueryGenerator(g.NumVertices(), 11).Batch(12)
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func(q workload.Query) {
			defer wg.Done()
			if _, err := s.Query(context.Background(), Request{Src: q.Source, Dst: q.Target, K: 2}); err != nil {
				t.Errorf("query: %v", err)
			}
		}(q)
	}
	wg.Wait()
	st := s.Stats()
	if st.RPCBatches == 0 {
		t.Errorf("expected the cluster provider's batch counters in serve.Stats, got %+v", st)
	}
	if st.QueriesServed != int64(len(queries)) {
		t.Errorf("queries served = %d, want %d", st.QueriesServed, len(queries))
	}
}

// A panic contained in the refine transport's worker call counts in
// serve.Stats beside those contained on pool workers, so kspd_panics_total
// sees it.
func TestStatsCountBatchSenderPanics(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(x, senderPanicsProvider{core.NewLocalProvider(p, 0)}, Options{Workers: 1})
	defer s.Close()
	if st := s.Stats(); st.Panics != 3 {
		t.Errorf("Panics = %d, want the transport's 3", st.Panics)
	}
}

// senderPanicsProvider reports three contained worker-call panics.
type senderPanicsProvider struct{ core.PartialProvider }

func (senderPanicsProvider) BatchStats() rpcbatch.Stats { return rpcbatch.Stats{Panics: 3} }
