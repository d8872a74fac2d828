package graph_test

import (
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/workload"
)

// TestBuildAllocsIndependentOfSize pins that Build allocates a fixed number
// of arrays, none per vertex: a road network four times the size costs the
// same number of allocations.
func TestBuildAllocsIndependentOfSize(t *testing.T) {
	allocs := func(w, h int) float64 {
		ds, err := workload.Generate(workload.RoadNetworkSpec{Width: w, Height: h, DiagonalFraction: 0.2, MissingFraction: 0.2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		b := graph.NewBuilder(g.NumVertices(), g.Directed())
		for _, e := range g.Edges() {
			if _, err := b.AddEdge(e.U, e.V, e.Weight); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, func() { b.Build() })
	}
	if small, large := allocs(30, 20), allocs(60, 40); small != large {
		t.Fatalf("Build makes %v allocations on 30x20 and %v on 60x40, want the same", small, large)
	}
}
