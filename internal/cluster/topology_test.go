package cluster

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
)

// TestClusterApplyTopology applies a topology batch to the index alone: the
// cluster picks up the new partition on its next routing call, and queries
// answer against the mutated graph.
func TestClusterApplyTopology(t *testing.T) {
	g := testutil.PaperGraph(t)
	x, c := buildCluster(t, g, 6, 2, 2)

	nv := graph.VertexID(g.NumVertices())
	st, err := x.ApplyTopology(graph.TopologyUpdate{
		AddVertices: 1,
		InsertEdges: []graph.Edge{{U: testutil.V1, V: nv, Weight: 1}, {U: nv, V: testutil.V19, Weight: 1}},
		DeleteEdges: []graph.EdgeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || len(st.InsertedEdges) != 2 || len(st.DeletedEdges) != 1 {
		t.Fatalf("unexpected topology stats: %+v", st)
	}

	// Queries remain exact against the post-topology parent graph.
	cur := x.Partition().Parent()
	engine := core.NewEngine(x, c, core.Options{})
	res, err := engine.QueryViewCtx(context.Background(), nil, testutil.V1, testutil.V19, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := testutil.BruteForceKSP(cur.Snapshot(), testutil.V1, testutil.V19, 2)
	if len(res.Paths) == 0 || math.Abs(res.Paths[0].Dist-want[0].Dist) > 1e-9 {
		t.Fatalf("post-topology query mismatch: %v vs %v", res.Paths, want)
	}
	if res.Paths[0].Dist > 2+1e-9 {
		t.Fatalf("inserted shortcut ignored: best v1->v19 = %g, want 2", res.Paths[0].Dist)
	}
	for w, worker := range c.Workers() {
		if worker.Partition() != x.Partition() {
			t.Errorf("worker %d still serves the construction-time partition", w)
		}
	}

	// Empty batches are no-ops: no epoch, no new partition.
	part := x.Partition()
	if st2, err := x.ApplyTopology(graph.TopologyUpdate{}); err != nil || st2.Epoch != st.Epoch {
		t.Errorf("empty batch: epoch %d, err %v", st2.Epoch, err)
	}
	if x.Partition() != part {
		t.Errorf("empty batch replaced the partition")
	}
}

// TestClusterServesOpenedSubgraph pins the publish window: the index
// publishes a topology epoch that opens a subgraph, and with no hook or
// broadcast a query on that epoch must already route to, and be answered
// by, the new subgraph's owner.  New-to-new, new-to-old and old-to-old
// queries must each equal Yen on the new parent graph.
func TestClusterServesOpenedSubgraph(t *testing.T) {
	g := testutil.PaperGraph(t)
	x, c := buildCluster(t, g, 6, 2, 2)
	before := x.Partition().NumSubgraphs()

	a := graph.VertexID(g.NumVertices())
	b := a + 1
	if _, err := x.ApplyTopology(graph.TopologyUpdate{
		AddVertices: 2,
		InsertEdges: []graph.Edge{{U: a, V: b, Weight: 1}, {U: b, V: testutil.V1, Weight: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := x.Partition().NumSubgraphs(); got <= before {
		t.Fatalf("the batch opened no subgraph: %d subgraphs, %d before", got, before)
	}

	cur := x.Partition().Parent()
	engine := core.NewEngine(x, c, core.Options{})
	for _, q := range []struct{ s, t graph.VertexID }{{a, b}, {a, testutil.V19}, {testutil.V1, testutil.V19}} {
		res, err := engine.QueryViewCtx(context.Background(), nil, q.s, q.t, 3)
		if err != nil {
			t.Fatalf("query(%d,%d): %v", q.s, q.t, err)
		}
		if want := shortest.Yen(cur.Snapshot(), q.s, q.t, 3, nil); !sameDists(res.Paths, want) {
			t.Errorf("query(%d,%d): %v, Yen %v", q.s, q.t, res.Paths, want)
		}
	}
}

// TestClusterQueriesRaceTopology runs pinned queries on several goroutines
// while subgraph-opening topology batches land between them: every answer
// must equal Yen on the graph and weights of the epoch it was pinned to.
func TestClusterQueriesRaceTopology(t *testing.T) {
	g := testutil.PaperGraph(t)
	x, c := buildCluster(t, g, 6, 2, 3)
	engine := core.NewEngine(x, c, core.Options{})
	// Each query starts by handing the main goroutine a token, so the batches
	// land while queries are in flight.
	querying := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case querying <- struct{}{}:
				}
				iv := x.CurrentView()
				cur := iv.Partition().Parent()
				s := graph.VertexID(rng.Intn(cur.NumVertices()))
				d := graph.VertexID(rng.Intn(cur.NumVertices()))
				res, err := engine.QueryViewCtx(context.Background(), iv, s, d, 2)
				want := shortest.Yen(cur.Snapshot(), s, d, 2, &shortest.Options{Weight: iv.GlobalWeight})
				if err != nil || !sameDists(res.Paths, want) {
					t.Errorf("query(%d,%d)@%d: %v (err %v), Yen %v", s, d, iv.Epoch(), res.Paths, err, want)
				}
			}
		}(rand.New(rand.NewSource(int64(q))))
	}
	for e := 0; e < 4; e++ {
		for i := 0; i < 8; i++ {
			<-querying
		}
		a := graph.VertexID(x.Partition().Parent().NumVertices())
		if _, err := x.ApplyTopology(graph.TopologyUpdate{
			AddVertices: 2,
			InsertEdges: []graph.Edge{{U: a, V: a + 1, Weight: 1}, {U: a + 1, V: testutil.V1, Weight: 2}},
		}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// sameDists reports whether two path lists have the same distances in order.
func sameDists(got, want []graph.Path) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

// TestRemoteWorkerTopology sends a topology batch to a standalone TCP worker
// (local-apply mode, as cmd/kspd runs them): the worker must derive the same
// edge ids as the master would, serve partial paths on the mutated graph, and
// reject a second delete of the same edge.
func TestRemoteWorkerTopology(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dtlp.Build(p, dtlp.Config{Xi: 1}); err != nil {
		t.Fatal(err)
	}
	var owned []partition.SubgraphID
	for i := 0; i < p.NumSubgraphs(); i++ {
		owned = append(owned, partition.SubgraphID(i))
	}
	w := NewWorker(0, p, owned)
	w.EnableLocalApply()
	srv, err := Serve("127.0.0.1:0", w)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rw, err := DialPool(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()

	bestDist := func() float64 {
		t.Helper()
		resp, err := rw.PartialKSP(PartialKSPRequest{Pairs: []core.PairRequest{{A: testutil.V4, B: testutil.V6}}, K: 2})
		if err != nil {
			t.Fatalf("PartialKSP: %v", err)
		}
		best := math.Inf(1)
		for _, paths := range resp.DecodePaths() {
			for _, path := range paths {
				if path.Dist < best {
					best = path.Dist
				}
			}
		}
		return best
	}

	if pre := bestDist(); pre <= 0.5 {
		t.Fatalf("pre-topology partial distance %g already at the shortcut weight", pre)
	}

	// Insert a direct v4-v6 shortcut and delete the v4-v5 edge (id 5 in the
	// paper edge list).  The worker derives the inserted edge's global id
	// itself; it must match the master's deterministic assignment (appended
	// at NumEdges).
	resp, err := rw.ApplyTopology(TopologyUpdateRequest{
		Update: graph.TopologyUpdate{
			InsertEdges: []graph.Edge{{U: testutil.V4, V: testutil.V6, Weight: 0.5}},
			DeleteEdges: []graph.EdgeID{5},
		},
		NumWorkers: 1,
		Factor:     1,
	})
	if err != nil {
		t.Fatalf("ApplyTopology: %v", err)
	}
	if len(resp.InsertedEdges) != 1 || resp.InsertedEdges[0] != graph.EdgeID(g.NumEdges()) {
		t.Fatalf("inserted ids = %v, want [%d]", resp.InsertedEdges, g.NumEdges())
	}
	if len(resp.DeletedEdges) != 1 || resp.DeletedEdges[0] != 5 {
		t.Fatalf("deleted ids = %v, want [5]", resp.DeletedEdges)
	}

	if post := bestDist(); math.Abs(post-0.5) > 1e-9 {
		t.Fatalf("post-topology partial distance = %g, want 0.5 via the inserted edge", post)
	}

	stats, err := rw.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TopologyBatches != 1 {
		t.Errorf("worker topology batches = %d, want 1", stats.TopologyBatches)
	}

	// Deleting the same edge again must fail remotely with the engine's
	// error, not crash the worker.
	if _, err := rw.ApplyTopology(TopologyUpdateRequest{
		Update:     graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{5}},
		NumWorkers: 1,
		Factor:     1,
	}); err == nil || !strings.Contains(err.Error(), "already deleted") {
		t.Fatalf("double delete error = %v, want 'already deleted'", err)
	}
}
