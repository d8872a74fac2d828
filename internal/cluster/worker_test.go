package cluster

import (
	"fmt"
	"testing"

	"kspdg/internal/core"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/testutil"
)

func TestWorkerOwnership(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSubgraphs() < 2 {
		t.Skip("need at least two subgraphs")
	}
	w := NewWorker(3, p, []partition.SubgraphID{0})
	if w.ID() != 3 {
		t.Errorf("ID = %d", w.ID())
	}
	if !w.Owns(0) || w.Owns(1) {
		t.Errorf("ownership flags wrong")
	}
	owned := w.Owned()
	if len(owned) != 1 || owned[0] != 0 {
		t.Errorf("Owned = %v", owned)
	}
}

func TestWorkerPartialKSPRestrictedToOwnedSubgraphs(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Find a boundary pair and the subgraphs containing it.
	boundary := p.BoundaryVertices()
	var a, b graph.VertexID = graph.NoVertex, graph.NoVertex
	var subs []partition.SubgraphID
	for i := 0; i < len(boundary) && a == graph.NoVertex; i++ {
		for j := i + 1; j < len(boundary); j++ {
			if cs := commonSubgraphs(p, boundary[i], boundary[j]); len(cs) > 0 {
				a, b, subs = boundary[i], boundary[j], cs
				break
			}
		}
	}
	if a == graph.NoVertex {
		t.Skip("no co-located boundary pair")
	}
	owner := NewWorker(0, p, subs)
	other := NewWorker(1, p, nil)
	req := PartialKSPRequest{Pairs: []core.PairRequest{{A: a, B: b}}, K: 2}
	ownerResp := owner.HandlePartialKSP(req)
	if got := ownerResp.DecodePaths(); len(got[0]) == 0 {
		t.Errorf("owning worker should return partial paths")
	}
	otherResp := other.HandlePartialKSP(req)
	if got := otherResp.DecodePaths(); len(got[0]) != 0 {
		t.Errorf("non-owning worker should return no paths, got %v", got[0])
	}
	// Same-vertex pairs yield the trivial path regardless of ownership.
	trivial := other.HandlePartialKSP(PartialKSPRequest{Pairs: []core.PairRequest{{A: a, B: a}}, K: 2})
	if got := trivial.DecodePaths(); len(got[0]) != 1 {
		t.Errorf("same-vertex pair should yield the trivial path")
	}
	st := owner.HandleStats(StatsRequest{})
	if st.RequestsServed != 1 || st.PairsServed != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Requests come off the wire, so degenerate ones must be answered — one
	// (possibly empty) slot per pair — at any executor width, never crash.
	outside := graph.VertexID(g.NumVertices() + 100)
	for _, tc := range []struct {
		name  string
		req   PartialKSPRequest
		paths []int // paths per slot
	}{
		{"zero pairs", PartialKSPRequest{K: 2}, nil},
		{"k zero", PartialKSPRequest{Pairs: []core.PairRequest{{A: a, B: b}, {A: b, B: a}}, K: 0}, []int{0, 0}},
		{"k negative", PartialKSPRequest{Pairs: []core.PairRequest{{A: a, B: b}}, K: -1}, []int{0}},
		{"vertex outside the partition", PartialKSPRequest{Pairs: []core.PairRequest{{A: a, B: outside}, {A: outside, B: outside + 1}}, K: 2}, []int{0, 0}},
	} {
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/width=%d", tc.name, width), func(t *testing.T) {
				testutil.SetGOMAXPROCS(t, width)
				resp := NewWorker(0, p, subs).HandlePartialKSP(tc.req)
				got := resp.DecodePaths()
				if resp.NumPairs() != len(tc.paths) || len(got) != len(tc.paths) {
					t.Fatalf("%d slots, want %d", resp.NumPairs(), len(tc.paths))
				}
				for i, n := range tc.paths {
					if len(got[i]) != n {
						t.Errorf("slot %d holds %d paths, want %d", i, len(got[i]), n)
					}
				}
			})
		}
	}
}

// TestDecodePathsWellFormedPrefix pins the wire invariant the master relies
// on: a Flat response whose lengths overrun its arrays decodes to its
// well-formed prefix — leading pairs intact, the rest empty — and never
// panics.
func TestDecodePathsWellFormedPrefix(t *testing.T) {
	verts := []graph.VertexID{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		name  string
		flat  *FlatPaths
		paths []int // decoded paths per slot
	}{
		{"nil", nil, nil},
		{"well formed", &FlatPaths{Verts: verts, Lens: []int32{2, 3}, Dists: []float64{1, 2}, Counts: []int32{1, 1}}, []int{1, 1}},
		{"length overruns verts", &FlatPaths{Verts: verts, Lens: []int32{2, 9}, Dists: []float64{1, 2}, Counts: []int32{1, 1}}, []int{1, 0}},
		{"negative length", &FlatPaths{Verts: verts, Lens: []int32{-1, 2}, Dists: []float64{1, 2}, Counts: []int32{1, 1}}, []int{0, 0}},
		{"dists too short", &FlatPaths{Verts: verts, Lens: []int32{2, 3}, Dists: []float64{1}, Counts: []int32{1, 1}}, []int{1, 0}},
		{"count overruns paths", &FlatPaths{Verts: verts, Lens: []int32{2, 3}, Dists: []float64{1, 2}, Counts: []int32{1, 5, 1}}, []int{1, 0, 0}},
		{"negative count", &FlatPaths{Verts: verts, Lens: []int32{2, 3}, Dists: []float64{1, 2}, Counts: []int32{-2, 1}}, []int{0, 0}},
	} {
		resp := PartialKSPResponse{Flat: tc.flat}
		got := resp.DecodePaths()
		if len(got) != len(tc.paths) || resp.NumPairs() != len(tc.paths) {
			t.Errorf("%s: %d slots (NumPairs %d), want %d", tc.name, len(got), resp.NumPairs(), len(tc.paths))
			continue
		}
		for i, n := range tc.paths {
			if len(got[i]) != n {
				t.Errorf("%s: slot %d holds %d paths, want %d", tc.name, i, len(got[i]), n)
			}
		}
	}
	resp := PartialKSPResponse{Flat: &FlatPaths{Verts: verts, Lens: []int32{2, 3}, Dists: []float64{1.5, 2.5}, Counts: []int32{2}}}
	got := resp.DecodePaths()[0]
	want := []graph.Path{{Vertices: []graph.VertexID{1, 2}, Dist: 1.5}, {Vertices: []graph.VertexID{3, 4, 5}, Dist: 2.5}}
	if !pathsEqual(got, want) {
		t.Errorf("decoded %v, want %v", got, want)
	}
}

func TestWorkerWeightUpdateAccounting(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(0, p, nil)
	resp := w.HandleWeightUpdate(WeightUpdateRequest{Updates: []graph.WeightUpdate{{Edge: 0, NewWeight: 123.5}}})
	if resp.Err != "" {
		t.Fatalf("HandleWeightUpdate: %s", resp.Err)
	}
	if st := w.HandleStats(StatsRequest{}); st.UpdatesReceived != 1 {
		t.Errorf("UpdatesReceived = %d", st.UpdatesReceived)
	}
	// Without EnableLocalApply the worker only counts: the weights are the
	// shared index's to write.
	loc := p.Locate(0)
	if p.Subgraph(loc.Subgraph).Local.Snapshot().Weight(loc.LocalEdge) == 123.5 {
		t.Errorf("a worker without local apply wrote its subgraph's weights")
	}
}
