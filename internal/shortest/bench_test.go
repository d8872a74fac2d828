package shortest

import (
	"math/rand"
	"testing"

	"kspdg/internal/graph"
)

var benchSink int

// gridForBench builds a w x h grid with deterministic weights in [1, 10).
func gridForBench(w, h int) *graph.Graph {
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(w*h, false)
	id := func(x, y int) graph.VertexID { return graph.VertexID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y), 1+rng.Float64()*9)
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1), 1+rng.Float64()*9)
			}
		}
	}
	return b.Build()
}

// skeletonForBench builds a graph shaped like a DTLP skeleton: `cliques`
// subgraphs in a row, each a clique over its `size` boundary vertices (the
// minimum bound distances), neighbouring subgraphs sharing two boundary
// vertices.
func skeletonForBench(cliques, size int) *graph.Graph {
	rng := rand.New(rand.NewSource(1))
	stride := size - 2
	b := graph.NewBuilder(cliques*stride+2, false)
	for c := 0; c < cliques; c++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdge(graph.VertexID(c*stride+i), graph.VertexID(c*stride+j), 1+rng.Float64()*9)
			}
		}
	}
	return b.Build()
}

// BenchmarkGeneratorNext is the engine's filter step: 100 reference paths
// across a skeleton of 10 cliques of 20 boundary vertices.
func BenchmarkGeneratorNext(b *testing.B) {
	g := skeletonForBench(10, 20).Snapshot() // queries read frozen epoch weights
	s, t := graph.VertexID(5), graph.VertexID(g.NumVertices()-6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := NewGenerator(g, s, t, nil)
		for p := 0; p < 100; p++ {
			if _, ok := gen.Next(); !ok {
				b.Fatal("skeleton ran out of paths")
			}
		}
		benchSink += len(gen.Produced())
	}
}

// BenchmarkYenSubgraph is a worker's partial KSP: Yen corner to corner on an
// 80-vertex grid subgraph (z = 80, as on local-closed) and, at k = 8, on a
// 200-vertex one (z = 200, as on coarse-closed).
func BenchmarkYenSubgraph(b *testing.B) {
	for _, c := range []struct {
		name string
		w, h int
		k    int
	}{{"k3", 10, 8, 3}, {"k8", 10, 8, 8}, {"v200/k8", 20, 10, 8}} {
		g := gridForBench(c.w, c.h).Snapshot()
		t := graph.VertexID(c.w*c.h - 1)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += len(Yen(g, 0, t, c.k, nil))
			}
		})
	}
}
