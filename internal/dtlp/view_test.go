package dtlp

import (
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
)

// TestViewsShareUntouchedSnapshots pins copy-on-write publication: a view
// holds every subgraph's current snapshot, so a subgraph no batch wrote keeps
// its snapshot, and the answers cached on it, from one epoch to the next.
func TestViewsShareUntouchedSnapshots(t *testing.T) {
	g, p, x := buildPaperIndex(t, 2)
	current := func(label string) *IndexView {
		t.Helper()
		v := x.CurrentView()
		for id := range v.Partition().NumSubgraphs() {
			sid := partition.SubgraphID(id)
			if v.SubgraphWeights(sid) != x.Partition().Subgraph(sid).Local.Snapshot() {
				t.Errorf("%s: view holds another snapshot of subgraph %d than its local graph", label, id)
			}
		}
		return v
	}
	v0 := current("build")

	// A weight batch that touches one subgraph re-snapshots only that one.
	e := graph.EdgeID(0)
	touched := p.Locate(e).Subgraph
	if _, err := x.ApplyUpdates([]graph.WeightUpdate{{Edge: e, NewWeight: g.Snapshot().Weight(e) + 1}}); err != nil {
		t.Fatal(err)
	}
	v1 := current("weight batch")
	for id := range p.NumSubgraphs() {
		sid := partition.SubgraphID(id)
		same := v1.SubgraphWeights(sid) == v0.SubgraphWeights(sid)
		if sid == touched && same {
			t.Errorf("the touched subgraph %d kept its snapshot", id)
		}
		if sid != touched && !same {
			t.Errorf("untouched subgraph %d got a new snapshot", id)
		}
	}

	// A batch that rewrites the weights already there publishes an epoch but
	// keeps every snapshot.
	if _, err := x.ApplyUpdates([]graph.WeightUpdate{{Edge: e, NewWeight: g.Snapshot().Weight(e)}}); err != nil {
		t.Fatal(err)
	}
	v2 := current("unchanged weights")
	if v2.Epoch() != v1.Epoch()+1 {
		t.Errorf("epoch %d after %d, want the next", v2.Epoch(), v1.Epoch())
	}
	for id := range p.NumSubgraphs() {
		if sid := partition.SubgraphID(id); v2.SubgraphWeights(sid) != v1.SubgraphWeights(sid) {
			t.Errorf("subgraph %d got a new snapshot from unchanged weights", id)
		}
	}

	// A topology batch shares the subgraphs it did not rebuild, and their
	// snapshots with them.
	if _, err := x.ApplyTopology(graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{1}}); err != nil {
		t.Fatal(err)
	}
	v3 := current("topology batch")
	shared := 0
	for id := range p.NumSubgraphs() {
		sid := partition.SubgraphID(id)
		if v3.Partition().Subgraph(sid) != p.Subgraph(sid) {
			continue // rebuilt
		}
		shared++
		if v3.SubgraphWeights(sid) != v2.SubgraphWeights(sid) {
			t.Errorf("subgraph %d, not rebuilt, got a new snapshot", id)
		}
	}
	if shared == 0 || shared == p.NumSubgraphs() {
		t.Fatalf("%d of %d subgraphs shared: the batch must rebuild some and not all", shared, p.NumSubgraphs())
	}
}

// TestWithinSubgraphDistanceAllocs pins that finding the subgraphs a query's
// endpoints share allocates nothing: the call costs what the one
// within-subgraph search it makes costs.
func TestWithinSubgraphDistanceAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	g, p, x := buildPaperIndex(t, 2)
	v := x.CurrentView()
	for s := graph.VertexID(0); int(s) < g.NumVertices(); s++ {
		for tv := s + 1; int(tv) < g.NumVertices(); tv++ {
			common := commonSubgraphs(p, s, tv)
			if len(common) != 1 {
				continue
			}
			sub := p.Subgraph(common[0])
			ls, _ := sub.ToLocal(s)
			lt, _ := sub.ToLocal(tv)
			snap := v.SubgraphWeights(common[0])
			search := testing.AllocsPerRun(100, func() { shortest.ShortestDistance(snap, ls, lt, nil) })
			if got := testing.AllocsPerRun(100, func() { v.WithinSubgraphDistance(s, tv) }); got != search {
				t.Fatalf("WithinSubgraphDistance(%d,%d): %v allocations, the search alone %v", s, tv, got, search)
			}
			return
		}
	}
	t.Fatal("no vertex pair lies in exactly one subgraph")
}
