package cluster_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"kspdg/internal/cluster"
	"kspdg/internal/dtlp"
	"kspdg/internal/partition"
	"kspdg/internal/serve"
	"kspdg/internal/testutil"
)

// A panic in a worker call fails the share it was shipping, not the
// process: at factor 1 that fails its own query, the next query is answered,
// the panic counts in BatchStats and in serve.Stats, and Close returns.
func TestProviderPanicFailsOneQuery(t *testing.T) {
	part, err := partition.PartitionGraph(testutil.PaperGraph(t), 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(part, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	worker := cluster.NewWorker(0, part, cluster.OwnedBy(0, part.NumSubgraphs(), 1, 1))
	worker.SetViewResolver(x.ViewAt)
	var panicked atomic.Bool
	p := cluster.NewProviderOver([]func(cluster.PartialKSPRequest) (cluster.PartialKSPResponse, error){
		func(req cluster.PartialKSPRequest) (cluster.PartialKSPResponse, error) {
			if panicked.CompareAndSwap(false, true) {
				panic("search bug")
			}
			return worker.HandlePartialKSP(req), nil
		},
	})
	s := serve.New(x, p, serve.Options{Workers: 1, CacheCapacity: -1})
	req := serve.Request{Src: testutil.V1, Dst: testutil.V19, K: 3}
	if _, err := s.Query(context.Background(), req); err == nil || !strings.Contains(err.Error(), "panicked: search bug") {
		t.Fatalf("query over the panicking call: err = %v, want the panic", err)
	}
	if res, err := s.Query(context.Background(), req); err != nil || len(res.Paths) != 3 {
		t.Fatalf("query after the panic: %d paths, err %v", len(res.Paths), err)
	}
	if st := p.BatchStats(); st.Panics != 1 {
		t.Errorf("BatchStats().Panics = %d, want 1", st.Panics)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Errorf("serve.Stats.Panics = %d, want 1", st.Panics)
	}
	s.Close()
	p.Close()
}
