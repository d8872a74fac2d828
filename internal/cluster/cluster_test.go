package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/fanout"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/testutil"
	"kspdg/internal/workload"
)

func buildCluster(t testing.TB, g *graph.Graph, z, xi, workers int) (*dtlp.Index, *Cluster) {
	t.Helper()
	p, err := partition.PartitionGraph(g, z)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: xi})
	if err != nil {
		t.Fatalf("dtlp: %v", err)
	}
	c, err := New(x, workers)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)
	return x, c
}

// runQueries answers the queries through an engine over the cluster, as many
// at a time as the cluster has workers, and returns the results in order.
func runQueries(t testing.TB, x *dtlp.Index, c *Cluster, queries []workload.Query, k int) []core.Result {
	t.Helper()
	engine := core.NewEngine(x, c, core.Options{})
	results := make([]core.Result, len(queries))
	errs := make([]error, len(queries))
	fanout.Do(len(queries), len(c.Workers()), func(i int) {
		results[i], errs[i] = engine.QueryViewCtx(context.Background(), nil, queries[i].Source, queries[i].Target, k)
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return results
}

// requestsServed sums the partial-KSP requests the cluster's workers served.
func requestsServed(c *Cluster) int {
	n := 0
	for _, w := range c.Workers() {
		n += w.HandleStats(StatsRequest{}).RequestsServed
	}
	return n
}

func TestNewValidation(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, _ := partition.PartitionGraph(g, 6)
	x, _ := dtlp.Build(p, dtlp.Config{Xi: 1})
	if _, err := New(x, 0); err == nil {
		t.Errorf("zero workers should be rejected")
	}
}

func TestAssignmentCoversAllSubgraphs(t *testing.T) {
	g := testutil.GridGraph(10, 10, 1)
	x, c := buildCluster(t, g, 12, 1, 4)
	workers := c.Workers()
	counts := make([]int, len(workers))
	for id := 0; id < x.Partition().NumSubgraphs(); id++ {
		owners := 0
		for w, worker := range workers {
			if worker.Owns(partition.SubgraphID(id)) {
				owners++
				counts[w]++
			}
		}
		if owners != 1 {
			t.Errorf("subgraph %d has %d owners, want 1", id, owners)
		}
	}
	// Load balance: no worker should be empty when there are enough
	// subgraphs to go around.
	if x.Partition().NumSubgraphs() >= len(workers) {
		for w, n := range counts {
			if n == 0 {
				t.Errorf("worker %d owns no subgraphs", w)
			}
		}
	}
}

func TestClusterQueryMatchesOracle(t *testing.T) {
	g := testutil.PaperGraph(t)
	x, c := buildCluster(t, g, 6, 2, 3)
	engine := core.NewEngine(x, c, core.Options{})
	cases := []struct {
		s, t graph.VertexID
		k    int
	}{
		{testutil.V1, testutil.V19, 3},
		{testutil.V4, testutil.V13, 2},
		{testutil.V2, testutil.V17, 4},
	}
	for _, cse := range cases {
		res, err := engine.QueryViewCtx(context.Background(), nil, cse.s, cse.t, cse.k)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		want := testutil.BruteForceKSP(g.Snapshot(), cse.s, cse.t, cse.k)
		if len(res.Paths) != len(want) {
			t.Fatalf("query (%d,%d,%d): got %d paths, want %d", cse.s, cse.t, cse.k, len(res.Paths), len(want))
		}
		for i := range want {
			if math.Abs(res.Paths[i].Dist-want[i].Dist) > 1e-9 {
				t.Errorf("query (%d,%d,%d) path %d dist %g, want %g", cse.s, cse.t, cse.k, i, res.Paths[i].Dist, want[i].Dist)
			}
		}
	}
	if requestsServed(c) == 0 {
		t.Errorf("expected the refine step to reach the cluster's workers")
	}
}

func TestClusterResultsIndependentOfWorkerCount(t *testing.T) {
	g := testutil.GridGraph(8, 8, 1)
	qg := workload.NewQueryGenerator(g.NumVertices(), 5)
	queries := qg.Batch(10)
	var baselineDists [][]float64
	for _, workers := range []int{1, 2, 5} {
		x, c := buildCluster(t, g, 10, 2, workers)
		results := runQueries(t, x, c, queries, 2)
		dists := make([][]float64, len(results))
		for i, r := range results {
			for _, p := range r.Paths {
				dists[i] = append(dists[i], p.Dist)
			}
		}
		if baselineDists == nil {
			baselineDists = dists
			continue
		}
		for i := range dists {
			if len(dists[i]) != len(baselineDists[i]) {
				t.Fatalf("workers=%d query %d: %d paths vs %d", workers, i, len(dists[i]), len(baselineDists[i]))
			}
			for j := range dists[i] {
				if math.Abs(dists[i][j]-baselineDists[i][j]) > 1e-9 {
					t.Errorf("workers=%d query %d path %d dist %g vs %g", workers, i, j, dists[i][j], baselineDists[i][j])
				}
			}
		}
	}
}

// TestClusterApplyUpdates applies a weight batch to the index alone: the
// workers get no message and still answer from the new weights.
func TestClusterApplyUpdates(t *testing.T) {
	g := testutil.PaperGraph(t)
	x, c := buildCluster(t, g, 6, 2, 2)
	rng := rand.New(rand.NewSource(1))
	batch := testutil.PerturbWeights(g, rng, 0.5, 0.4, 0.1)
	if _, err := x.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	engine := core.NewEngine(x, c, core.Options{})
	res, err := engine.QueryViewCtx(context.Background(), nil, testutil.V1, testutil.V19, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := testutil.BruteForceKSP(g.Snapshot(), testutil.V1, testutil.V19, 2)
	if len(res.Paths) != len(want) || math.Abs(res.Paths[0].Dist-want[0].Dist) > 1e-9 {
		t.Errorf("post-update query mismatch: %v vs %v", res.Paths, want)
	}
	if _, err := x.ApplyUpdates(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestClusterLoadBalance(t *testing.T) {
	ds, err := workload.BuiltinDataset("NY", workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	x, c := buildCluster(t, g, 20, 1, 4)
	queries := workload.NewQueryGenerator(g.NumVertices(), 77).Batch(24)
	runQueries(t, x, c, queries, 2)
	busy := 0
	for _, w := range c.Workers() {
		if w.HandleStats(StatsRequest{}).RequestsServed > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("expected at least two workers to serve requests, got %d busy", busy)
	}
}

func TestRemoteWorkerRoundTrip(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dtlp.Build(p, dtlp.Config{Xi: 1}); err != nil {
		t.Fatal(err)
	}
	// One worker owning all subgraphs, served over TCP.
	var owned []partition.SubgraphID
	for i := 0; i < p.NumSubgraphs(); i++ {
		owned = append(owned, partition.SubgraphID(i))
	}
	srv, err := Serve("127.0.0.1:0", NewWorker(0, p, owned))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rw, err := DialPool(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()

	boundary := p.BoundaryVertices()
	if len(boundary) < 2 {
		t.Skip("need boundary vertices")
	}
	pairs := []core.PairRequest{{A: boundary[0], B: boundary[1]}}
	resp, err := rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.NumPairs() != 1 {
		t.Fatalf("expected one result slot, got %d", resp.NumPairs())
	}

	if _, err := rw.ApplyUpdates([]graph.WeightUpdate{{Edge: 0, NewWeight: 5}}); err != nil {
		t.Fatal(err)
	}
	stats, err := rw.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RequestsServed != 1 || stats.UpdatesReceived != 1 {
		t.Errorf("remote stats = %+v", stats)
	}
}

func TestRemoteProviderQueryMatchesOracle(t *testing.T) {
	g := testutil.PaperGraph(t)
	for _, tc := range []struct {
		name string
		opts ClientOptions
	}{
		{"pool1", ClientOptions{}},
		{"pool3", ClientOptions{PoolSize: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, remotes, cleanup := remoteOracleDeployment(t, tc.opts)
			defer cleanup()
			bp := NewBatchedRemoteProvider(remotes, rpcbatch.Options{})
			defer bp.Close()
			engine := core.NewEngine(x, bp, core.Options{})
			res, err := engine.QueryViewCtx(context.Background(), nil, testutil.V1, testutil.V19, 3)
			if err != nil {
				t.Fatal(err)
			}
			want := testutil.BruteForceKSP(g.Snapshot(), testutil.V1, testutil.V19, 3)
			if len(res.Paths) != len(want) {
				t.Fatalf("remote query returned %d paths, want %d", len(res.Paths), len(want))
			}
			for i := range want {
				if math.Abs(res.Paths[i].Dist-want[i].Dist) > 1e-9 {
					t.Errorf("remote path %d dist %g, want %g", i, res.Paths[i].Dist, want[i].Dist)
				}
			}
		})
	}
}
