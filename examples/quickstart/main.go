// Quickstart: build a small dynamic road network, construct the DTLP index,
// and answer a k shortest path query with KSP-DG — the minimal end-to-end use
// of the library's public building blocks.
package main

import (
	"context"
	"fmt"
	"log"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
)

func main() {
	// 1. Build a small road network: a 4x4 grid of intersections where the
	//    weight of each road segment is its travel time in minutes.
	const width, height = 4, 4
	b := graph.NewBuilder(width*height, false)
	id := func(x, y int) graph.VertexID { return graph.VertexID(y*width + x) }
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			if x+1 < width {
				mustAdd(b, id(x, y), id(x+1, y), float64(1+(x+y)%3))
			}
			if y+1 < height {
				mustAdd(b, id(x, y), id(x, y+1), float64(2+(x*y)%3))
			}
		}
	}
	g := b.Build()

	// 2. Partition the network into subgraphs of at most 6 vertices and build
	//    the two-level DTLP index (ξ=2 bounding paths per boundary pair).
	part, err := partition.PartitionGraph(g, 6)
	if err != nil {
		log.Fatal(err)
	}
	index, err := dtlp.Build(part, dtlp.Config{Xi: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d vertices, %d edges, %d subgraphs, %d boundary vertices\n",
		g.NumVertices(), g.NumEdges(), part.NumSubgraphs(), len(part.BoundaryVertices()))

	// 3. Answer a query: top-3 shortest routes from the north-west corner to
	//    the south-east corner.
	engine := core.NewEngine(index, nil, core.Options{})
	res, err := engine.QueryViewCtx(context.Background(), nil, id(0, 0), id(width-1, height-1), 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-3 routes before traffic:")
	for i, p := range res.Paths {
		fmt.Printf("  %d. %s\n", i+1, p)
	}

	// 4. Traffic builds up on one road; the index is maintained incrementally
	//    and the next query reflects the new travel times.
	e, _ := g.EdgeBetween(id(1, 1), id(2, 1))
	batch := []graph.WeightUpdate{{Edge: e, NewWeight: 10}}
	if _, err := index.ApplyUpdates(batch); err != nil {
		log.Fatal(err)
	}
	res, err = engine.QueryViewCtx(context.Background(), nil, id(0, 0), id(width-1, height-1), 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-3 routes after congestion on segment (1,1)-(2,1):")
	for i, p := range res.Paths {
		fmt.Printf("  %d. %s\n", i+1, p)
	}
}

func mustAdd(b *graph.Builder, u, v graph.VertexID, w float64) {
	if _, err := b.AddEdge(u, v, w); err != nil {
		log.Fatal(err)
	}
}
