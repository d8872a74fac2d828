package cluster

import (
	"context"
	"math"
	"strings"
	"testing"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/testutil"
)

// TestClusterApplyTopology drives a topology batch through the in-process
// cluster: the shared index publishes the new epoch, every worker receives
// the broadcast and the derived partition, and queries answer against the
// mutated graph.
func TestClusterApplyTopology(t *testing.T) {
	g := testutil.PaperGraph(t)
	x, c := buildCluster(t, g, 6, 2, 2)

	nv := graph.VertexID(g.NumVertices())
	st, err := c.ApplyTopology(graph.TopologyUpdate{
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
	engine := c.Engine(core.Options{})
	res, err := engine.QueryViewCtx(context.Background(), nil, testutil.V1, testutil.V19, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := testutil.BruteForceKSP(cur, testutil.V1, testutil.V19, 2)
	if len(res.Paths) == 0 || math.Abs(res.Paths[0].Dist-want[0].Dist) > 1e-9 {
		t.Fatalf("post-topology query mismatch: %v vs %v", res.Paths, want)
	}
	if res.Paths[0].Dist > 2+1e-9 {
		t.Fatalf("inserted shortcut ignored: best v1->v19 = %g, want 2", res.Paths[0].Dist)
	}

	cs := c.Stats()
	if cs.TopologyBatches != 1 {
		t.Errorf("cluster topology batches = %d, want 1", cs.TopologyBatches)
	}

	// Empty batches are no-ops and never reach the workers.
	if _, err := c.ApplyTopology(graph.TopologyUpdate{}); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if got := c.Stats().TopologyBatches; got != 1 {
		t.Errorf("empty batch was broadcast: %d batches", got)
	}
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
