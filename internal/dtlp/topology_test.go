package dtlp

import (
	"sync"
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/testutil"
)

func TestApplyTopologyInsertDelete(t *testing.T) {
	_, p, x := buildPaperIndex(t, 2)
	v0 := x.CurrentView()

	st, err := x.ApplyTopology(graph.TopologyUpdate{
		InsertEdges: []graph.Edge{{U: 0, V: 9, Weight: 2.5}},
		DeleteEdges: []graph.EdgeID{0},
	})
	if err != nil {
		t.Fatalf("ApplyTopology: %v", err)
	}
	if st.Epoch != v0.Epoch()+1 {
		t.Errorf("epoch = %d, want %d", st.Epoch, v0.Epoch()+1)
	}
	if len(st.InsertedEdges) != 1 || len(st.DeletedEdges) != 1 || st.DeletedEdges[0] != 0 {
		t.Errorf("unexpected stats %+v", st)
	}

	np := x.Partition()
	if np == p {
		t.Fatalf("topology update did not replace the partition")
	}
	parent := np.Parent()
	if parent.EdgeAlive(0) {
		t.Errorf("deleted edge 0 still alive")
	}
	if !parent.EdgeAlive(st.InsertedEdges[0]) {
		t.Errorf("inserted edge %d not alive", st.InsertedEdges[0])
	}
	if w := parent.Snapshot().Weight(st.InsertedEdges[0]); w != 2.5 {
		t.Errorf("inserted edge weight = %g, want 2.5", w)
	}
	if err := np.Validate(); err != nil {
		t.Fatalf("partition invalid after topology: %v", err)
	}
	checkLowerBounds(t, np, x)

	// The pre-topology view must stay pinned to the old generation.
	old := x.ViewAt(v0.Epoch())
	if old == nil {
		t.Fatalf("old epoch evicted")
	}
	if old.Partition() != p {
		t.Errorf("old view resolves the new partition")
	}
	if x.CurrentView().Partition() != np {
		t.Errorf("current view does not resolve the new partition")
	}

	// Weight updates on the deleted edge must now be rejected.
	if _, err := x.ApplyUpdates([]graph.WeightUpdate{{Edge: 0, NewWeight: 9}}); err == nil {
		t.Errorf("weight update on deleted edge accepted")
	}
}

func TestApplyTopologyIncrementalRebuild(t *testing.T) {
	_, p, x := buildPaperIndex(t, 2)
	before := SubgraphBuildCount()
	st, err := x.ApplyTopology(graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{1}})
	if err != nil {
		t.Fatalf("ApplyTopology: %v", err)
	}
	delta := SubgraphBuildCount() - before
	if delta != int64(st.SubgraphsRebuilt) {
		t.Errorf("subgraph builds = %d, stats report %d", delta, st.SubgraphsRebuilt)
	}
	if st.SubgraphsRebuilt == 0 || st.SubgraphsRebuilt >= p.NumSubgraphs() {
		t.Errorf("expected a strict subset of %d subgraphs rebuilt, got %d",
			p.NumSubgraphs(), st.SubgraphsRebuilt)
	}
}

func TestApplyTopologyEmptyBatch(t *testing.T) {
	_, _, x := buildPaperIndex(t, 2)
	e0 := x.CurrentView().Epoch()
	st, err := x.ApplyTopology(graph.TopologyUpdate{})
	if err != nil || st.Epoch != e0 {
		t.Errorf("empty batch: epoch %d err %v, want %d nil", st.Epoch, err, e0)
	}
}

// Deleting the last edge of a vertex leaves the vertex isolated but keeps its
// id valid and the partition consistent.
func TestApplyTopologyDeleteLastEdgeOfVertex(t *testing.T) {
	g := testutil.LineGraph(t, 6)
	p, err := partition.PartitionGraph(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(p, Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0's only edge is edge 0 (0-1).
	if _, err := x.ApplyTopology(graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{0}}); err != nil {
		t.Fatalf("ApplyTopology: %v", err)
	}
	np := x.Partition()
	if err := np.Validate(); err != nil {
		t.Fatalf("partition invalid: %v", err)
	}
	if np.Parent().Degree(0) != 0 {
		t.Errorf("vertex 0 still has arcs")
	}
	// Deleting the edge again must fail (already dead).
	if _, err := x.ApplyTopology(graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{0}}); err == nil {
		t.Errorf("double delete accepted")
	}
	checkLowerBounds(t, np, x)
}

// Deleting a boundary (skeleton) vertex removes it from every subgraph and
// every incident edge, and the rebuilt skeleton no longer carries it.
func TestApplyTopologyDeleteBoundaryVertex(t *testing.T) {
	_, p, x := buildPaperIndex(t, 2)
	bvs := p.BoundaryVertices()
	if len(bvs) == 0 {
		t.Fatal("paper partition has no boundary vertices")
	}
	bv := bvs[0]
	if _, err := x.ApplyTopology(graph.TopologyUpdate{DeleteVertices: []graph.VertexID{bv}}); err != nil {
		t.Fatalf("ApplyTopology: %v", err)
	}
	np := x.Partition()
	if err := np.Validate(); err != nil {
		t.Fatalf("partition invalid: %v", err)
	}
	if len(np.SubgraphsOf(bv)) != 0 {
		t.Errorf("deleted vertex %d still member of %v", bv, np.SubgraphsOf(bv))
	}
	if np.IsBoundary(bv) {
		t.Errorf("deleted vertex %d still flagged boundary", bv)
	}
	if _, ok := x.Skeleton().SkelID(bv); ok {
		t.Errorf("deleted vertex %d still in skeleton", bv)
	}
	parent := np.Parent()
	for e := 0; e < parent.NumEdges(); e++ {
		ends := parent.EdgeEndpoints(graph.EdgeID(e))
		if (ends.U == bv || ends.V == bv) && parent.EdgeAlive(graph.EdgeID(e)) {
			t.Errorf("edge %d incident to deleted vertex %d still alive", e, bv)
		}
	}
	checkLowerBounds(t, np, x)
}

// A subgraph emptied by vertex deletions persists as a tombstone and is
// reused for an edge between brand-new vertices.
func TestApplyTopologyInsertIntoEmptySubgraph(t *testing.T) {
	g := testutil.LineGraph(t, 4) // edges 0-1, 1-2, 2-3
	p, err := partition.PartitionGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSubgraphs() < 2 {
		t.Fatalf("expected multiple subgraphs, got %d", p.NumSubgraphs())
	}
	x, err := Build(p, Config{Xi: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Empty out subgraph 0 (vertices 0 and 1).
	if _, err := x.ApplyTopology(graph.TopologyUpdate{DeleteVertices: []graph.VertexID{0, 1}}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if n := x.Partition().Subgraph(0).NumVertices(); n != 0 {
		t.Fatalf("subgraph 0 has %d vertices, want 0", n)
	}
	// Insert an edge between two new vertices: must land in subgraph 0.
	nv := graph.VertexID(g.NumVertices())
	st, err := x.ApplyTopology(graph.TopologyUpdate{
		AddVertices: 2,
		InsertEdges: []graph.Edge{{U: nv, V: nv + 1, Weight: 1}},
	})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	np := x.Partition()
	if err := np.Validate(); err != nil {
		t.Fatalf("partition invalid: %v", err)
	}
	sg := np.Subgraph(0)
	if sg.NumVertices() != 2 || !sg.Contains(nv) || !sg.Contains(nv+1) {
		t.Errorf("subgraph 0 = %v, want the two new vertices", sg.Globals)
	}
	if loc := np.Locate(st.InsertedEdges[0]); loc.Subgraph != 0 {
		t.Errorf("inserted edge owned by subgraph %d, want 0", loc.Subgraph)
	}
	if np.NumSubgraphs() != p.NumSubgraphs() {
		t.Errorf("subgraph count changed from %d to %d", p.NumSubgraphs(), np.NumSubgraphs())
	}
}

// An inserted edge between vertices of two full subgraphs opens a new
// subgraph holding both endpoints, making them boundary vertices.
func TestApplyTopologyInsertOpensNewSubgraph(t *testing.T) {
	g := testutil.LineGraph(t, 4)
	p, err := partition.PartitionGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(p, Config{Xi: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := p.NumSubgraphs()
	// 0 and 3 live in different full (z=2) subgraphs with no room.
	st, err := x.ApplyTopology(graph.TopologyUpdate{
		InsertEdges: []graph.Edge{{U: 0, V: 3, Weight: 5}},
	})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	np := x.Partition()
	if err := np.Validate(); err != nil {
		t.Fatalf("partition invalid: %v", err)
	}
	if np.NumSubgraphs() != before+1 {
		t.Fatalf("subgraphs = %d, want %d", np.NumSubgraphs(), before+1)
	}
	if loc := np.Locate(st.InsertedEdges[0]); int(loc.Subgraph) != before {
		t.Errorf("inserted edge owned by subgraph %d, want new subgraph %d", loc.Subgraph, before)
	}
	if !np.IsBoundary(0) || !np.IsBoundary(3) {
		t.Errorf("endpoints of bridging edge not boundary")
	}
	checkLowerBounds(t, np, x)
}

// Topology and weight batches may arrive concurrently; the single-writer lock
// serializes them and every batch still publishes exactly one epoch.
func TestApplyTopologyConcurrentWithWeights(t *testing.T) {
	g, _, x := buildPaperIndex(t, 2)
	base := x.CurrentView().Epoch()
	const topoBatches, weightBatches = 4, 8
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, topoBatches+weightBatches)
	go func() {
		defer wg.Done()
		u := graph.VertexID(0)
		for i := 0; i < topoBatches; i++ {
			// Insert parallel-free fresh vertices so batches never conflict.
			nv := graph.VertexID(g.NumVertices() + 2*i)
			if _, err := x.ApplyTopology(graph.TopologyUpdate{
				AddVertices: 2,
				InsertEdges: []graph.Edge{{U: u, V: nv, Weight: 3}, {U: nv, V: nv + 1, Weight: 4}},
			}); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < weightBatches; i++ {
			// Edge 2 of the paper graph is never deleted here.
			if _, err := x.ApplyUpdates([]graph.WeightUpdate{{Edge: 2, NewWeight: float64(i + 1)}}); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent batch failed: %v", err)
	}
	if got := x.CurrentView().Epoch(); got != base+topoBatches+weightBatches {
		t.Errorf("epoch = %d, want %d", got, base+topoBatches+weightBatches)
	}
	if err := x.Partition().Validate(); err != nil {
		t.Fatalf("final partition invalid: %v", err)
	}
	checkLowerBounds(t, x.Partition(), x)
}
