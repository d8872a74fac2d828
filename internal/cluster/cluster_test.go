package cluster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
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
	c, err := New(x, Config{NumWorkers: workers})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return x, c
}

func TestNewValidation(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, _ := partition.PartitionGraph(g, 6)
	x, _ := dtlp.Build(p, dtlp.Config{Xi: 1})
	if _, err := New(x, Config{NumWorkers: 0}); err == nil {
		t.Errorf("zero workers should be rejected")
	}
}

func TestAssignmentCoversAllSubgraphs(t *testing.T) {
	g := testutil.GridGraph(10, 10, 1)
	_, c := buildCluster(t, g, 12, 1, 4)
	counts := make([]int, c.NumWorkers())
	for id := 0; id < c.Index().Partition().NumSubgraphs(); id++ {
		w := c.AssignedWorker(partition.SubgraphID(id))
		if w < 0 || w >= c.NumWorkers() {
			t.Fatalf("subgraph %d assigned to invalid worker %d", id, w)
		}
		if !c.Worker(w).Owns(partition.SubgraphID(id)) {
			t.Errorf("worker %d does not own its assigned subgraph %d", w, id)
		}
		counts[w]++
	}
	// Load balance: no worker should be empty when there are enough
	// subgraphs to go around.
	if c.Index().Partition().NumSubgraphs() >= c.NumWorkers() {
		for w, n := range counts {
			if n == 0 {
				t.Errorf("worker %d owns no subgraphs", w)
			}
		}
	}
}

func TestClusterQueryMatchesOracle(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, c := buildCluster(t, g, 6, 2, 3)
	engine := c.Engine(core.Options{})
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
		want := testutil.BruteForceKSP(g, cse.s, cse.t, cse.k)
		if len(res.Paths) != len(want) {
			t.Fatalf("query (%d,%d,%d): got %d paths, want %d", cse.s, cse.t, cse.k, len(res.Paths), len(want))
		}
		for i := range want {
			if math.Abs(res.Paths[i].Dist-want[i].Dist) > 1e-9 {
				t.Errorf("query (%d,%d,%d) path %d dist %g, want %g", cse.s, cse.t, cse.k, i, res.Paths[i].Dist, want[i].Dist)
			}
		}
	}
	st := c.Stats()
	if st.MessagesSent == 0 {
		t.Errorf("expected cluster messages to be accounted")
	}
}

func TestClusterResultsIndependentOfWorkerCount(t *testing.T) {
	g := testutil.GridGraph(8, 8, 1)
	qg := workload.NewQueryGenerator(g.NumVertices(), 5)
	queries := qg.Batch(10)
	var baselineDists [][]float64
	for _, workers := range []int{1, 2, 5} {
		_, c := buildCluster(t, g, 10, 2, workers)
		results, err := c.ProcessBatch(queries, 2, core.Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
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

func TestClusterApplyUpdates(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, c := buildCluster(t, g, 6, 2, 2)
	rng := rand.New(rand.NewSource(1))
	batch := testutil.PerturbWeights(g, rng, 0.5, 0.4, 0.1)
	if err := c.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.UpdatesRouted != int64(len(batch)) {
		t.Errorf("updates routed = %d, want %d", st.UpdatesRouted, len(batch))
	}
	total := 0
	for _, n := range st.WorkerUpdates {
		total += n
	}
	if total != len(batch) {
		t.Errorf("worker update counters sum to %d, want %d", total, len(batch))
	}
	// Queries remain exact after distributed maintenance.
	engine := c.Engine(core.Options{})
	res, err := engine.QueryViewCtx(context.Background(), nil, testutil.V1, testutil.V19, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := testutil.BruteForceKSP(g, testutil.V1, testutil.V19, 2)
	if len(res.Paths) != len(want) || math.Abs(res.Paths[0].Dist-want[0].Dist) > 1e-9 {
		t.Errorf("post-update query mismatch: %v vs %v", res.Paths, want)
	}
	if err := c.ApplyUpdates(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestClusterStatsBytes(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, _ := partition.PartitionGraph(g, 6)
	x, _ := dtlp.Build(p, dtlp.Config{Xi: 1})
	c, err := New(x, Config{NumWorkers: 2, MeasureBytes: true})
	if err != nil {
		t.Fatal(err)
	}
	engine := c.Engine(core.Options{})
	if _, err := engine.QueryViewCtx(context.Background(), nil, testutil.V1, testutil.V19, 2); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.BytesSent == 0 {
		t.Errorf("MeasureBytes should account message sizes")
	}
	if len(st.WorkerRequests) != 2 || len(st.WorkerSubgraphs) != 2 {
		t.Errorf("per-worker stats missing: %+v", st)
	}
}

func TestProcessBatchLoadBalance(t *testing.T) {
	ds, err := workload.BuiltinDataset("NY", workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	_, c := buildCluster(t, g, 20, 1, 4)
	queries := workload.NewQueryGenerator(g.NumVertices(), 77).Batch(24)
	if _, err := c.ProcessBatch(queries, 2, core.Options{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.QueriesHandled != 24 {
		t.Errorf("queries handled = %d, want 24", st.QueriesHandled)
	}
	busy := 0
	for _, r := range st.WorkerRequests {
		if r > 0 {
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
			want := testutil.BruteForceKSP(g, testutil.V1, testutil.V19, 3)
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

// TestClusterReplicatedMatchesSingleCopy runs the same queries through a
// replicated in-process cluster and an unreplicated one: replication changes
// where subgraph copies live (and multiplies the update routing), never the
// answers.
func TestClusterReplicatedMatchesSingleCopy(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(x1, Config{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	p2, _ := partition.PartitionGraph(g, 6)
	x2, err := dtlp.Build(p2, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := New(x2, Config{NumWorkers: 3, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer replicated.Close()

	table := replicated.ReplicaTable()
	if table.Factor() != 2 {
		t.Fatalf("replica factor %d, want 2", table.Factor())
	}
	for sg := 0; sg < p2.NumSubgraphs(); sg++ {
		id := partition.SubgraphID(sg)
		for _, w := range table.Replicas(id) {
			if !replicated.Worker(w).Owns(id) {
				t.Errorf("worker %d does not own replicated subgraph %d", w, sg)
			}
		}
	}

	e1 := single.Engine(core.Options{})
	e2 := replicated.Engine(core.Options{})
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 6; q++ {
		s := graph.VertexID(rng.Intn(g.NumVertices()))
		d := graph.VertexID(rng.Intn(g.NumVertices()))
		if s == d {
			continue
		}
		r1, err1 := e1.QueryViewCtx(context.Background(), nil, s, d, 3)
		r2, err2 := e2.QueryViewCtx(context.Background(), nil, s, d, 3)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query(%d,%d): errs %v vs %v", s, d, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if len(r1.Paths) != len(r2.Paths) {
			t.Fatalf("query(%d,%d): %d vs %d paths", s, d, len(r1.Paths), len(r2.Paths))
		}
		for i := range r1.Paths {
			if math.Abs(r1.Paths[i].Dist-r2.Paths[i].Dist) > 1e-9 {
				t.Fatalf("query(%d,%d) path %d: %g vs %g", s, d, i, r1.Paths[i].Dist, r2.Paths[i].Dist)
			}
		}
	}

	// Updates are routed to every replica.
	batch := []graph.WeightUpdate{{Edge: 0, NewWeight: g.Weight(0) * 1.5}}
	if err := replicated.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	loc := p2.Locate(0)
	for _, w := range table.Replicas(loc.Subgraph) {
		ws := replicated.Worker(w).HandleStats(StatsRequest{})
		if ws.UpdatesReceived == 0 {
			t.Errorf("replica worker %d of subgraph %d received no updates", w, loc.Subgraph)
		}
	}
	if st := replicated.Stats(); st.ReplicaFactor != 2 {
		t.Errorf("stats replica factor %d, want 2", st.ReplicaFactor)
	}
}
