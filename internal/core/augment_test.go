package core

import (
	"context"
	"slices"
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
)

func TestAugmentedSkeletonView(t *testing.T) {
	base := testutil.LineGraph(t, 4) // vertices 0-1-2-3, unit weights
	aug := newAugmentedSkeleton(base)
	if aug.NumVertices() != 4 || aug.NumEdges() != 3 {
		t.Fatalf("augmented view should start identical to base")
	}
	v := aug.addVertex()
	if v != 4 || aug.NumVertices() != 5 {
		t.Errorf("addVertex gave id %d, NumVertices %d", v, aug.NumVertices())
	}
	e := aug.addEdge(v, 1, 2.5)
	if int(e) != base.NumEdges() {
		t.Errorf("extra edge id = %d, want %d", e, base.NumEdges())
	}
	if aug.Weight(e) != 2.5 || aug.InitialWeight(e) != 2.5 {
		t.Errorf("extra edge weight wrong")
	}
	ends := aug.EdgeEndpoints(e)
	if ends.U != v || ends.V != 1 {
		t.Errorf("extra edge endpoints = %+v", ends)
	}
	// Undirected base: arc visible from both sides.
	if got, ok := aug.EdgeBetween(v, 1); !ok || got != e {
		t.Errorf("EdgeBetween(v,1) = %d,%v", got, ok)
	}
	if got, ok := aug.EdgeBetween(1, v); !ok || got != e {
		t.Errorf("EdgeBetween(1,v) = %d,%v", got, ok)
	}
	if _, ok := aug.EdgeBetween(v, 3); ok {
		t.Errorf("unexpected edge between v and 3")
	}
	// Base edges still resolve through the wrapper.
	if be, ok := aug.EdgeBetween(0, 1); !ok || aug.Weight(be) != 1 {
		t.Errorf("base edge lookup broken")
	}
	if eps := aug.EdgeEndpoints(0); eps != base.EdgeEndpoints(0) {
		t.Errorf("base edge endpoints differ")
	}
	// Neighbors of an attached base vertex include the extra arc; cached
	// merged adjacency stays correct after another edge is added.
	if len(aug.Neighbors(1)) != len(base.Neighbors(1))+1 {
		t.Errorf("merged adjacency missing extra arc")
	}
	v2 := aug.addVertex()
	aug.addEdge(v2, 1, 1)
	if len(aug.Neighbors(1)) != len(base.Neighbors(1))+2 {
		t.Errorf("merged adjacency not invalidated after new edge")
	}
	// Dijkstra runs over the augmented view: v -(2.5)- 1 -(1)- 0.
	p, ok := shortest.ShortestPath(aug, v, 0, nil)
	if !ok || p.Dist != 3.5 {
		t.Errorf("shortest path over augmented view = %v, %v", p, ok)
	}
}

func TestAugmentedSkeletonDirected(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	base := b.Build()
	aug := newAugmentedSkeleton(base)
	s := aug.addVertex()
	aug.addEdge(s, 0, 2) // directed: only s -> 0
	if _, ok := aug.EdgeBetween(0, s); ok {
		t.Errorf("directed extra edge must not be reversible")
	}
	if _, ok := aug.EdgeBetween(s, 0); !ok {
		t.Errorf("forward extra edge missing")
	}
	p, ok := shortest.ShortestPath(aug, s, 2, nil)
	if !ok || p.Dist != 4 {
		t.Errorf("directed augmented path = %v, %v", p, ok)
	}
}

func TestOptionsDefaults(t *testing.T) {
	if got := beamWidth(2); got != 6 {
		t.Errorf("beamWidth(2) = %d, want 6", got)
	}
	if got := beamWidth(10); got != 20 {
		t.Errorf("beamWidth(10) = %d, want 20", got)
	}
	var o2 Options
	if o2.maxIterations() != 10000 {
		t.Errorf("default max iterations = %d", o2.maxIterations())
	}
	o2.MaxIterations = 7
	if o2.maxIterations() != 7 {
		t.Errorf("explicit max iterations ignored")
	}
}

func TestQueryRespectsMaxIterations(t *testing.T) {
	g := testutil.GridGraph(6, 6, 1)
	_, _, e := buildEngine(t, g, 8, 1)
	limited := NewEngine(e.Index(), nil, Options{MaxIterations: 1})
	res, err := limited.QueryViewCtx(context.Background(), nil, 0, graph.VertexID(g.NumVertices()-1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want exactly 1 under the cap", res.Iterations)
	}
	if len(res.Paths) == 0 {
		t.Errorf("even one iteration should produce candidate paths on a grid")
	}
}

// Query endpoints attach to the skeleton in boundary-vertex order, not map
// order: arc order decides which of two equally keyed vertices a search
// settles first, and with it the bits of an answer's Dist, which must be the
// same every time a query runs against an epoch.
func TestAugmentedSkeletonIsDeterministic(t *testing.T) {
	g := testutil.GridGraph(8, 8, 1)
	_, x, e := buildEngine(t, g, 12, 2)
	iv := x.CurrentView()
	var ends []graph.VertexID
	for v := graph.VertexID(0); int(v) < g.NumVertices() && len(ends) < 2; v++ {
		if _, boundary := iv.Skeleton().SkelID(v); !boundary && len(iv.BoundaryLowerBounds(v)) >= 3 {
			ends = append(ends, v)
		}
	}
	if len(ends) < 2 {
		t.Fatal("grid has no two interior vertices with three boundary bounds")
	}
	arcs := func() [][]graph.Arc {
		view, sAug, tAug, _, err := e.buildAugmentedSkeleton(iv, ends[0], ends[1])
		if err != nil {
			t.Fatal(err)
		}
		return [][]graph.Arc{view.Neighbors(sAug), view.Neighbors(tAug)}
	}
	want := arcs()
	for i := 0; i < 20; i++ {
		if got := arcs(); !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[1]) {
			t.Fatalf("build %d attached %v, first build %v", i, got, want)
		}
	}
}
