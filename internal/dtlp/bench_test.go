package dtlp

import (
	"fmt"
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/workload"
)

// rulerNetwork is the end-to-end benchmark's road network: a 30×20 grid, 15 %
// diagonals, 25 % of edges missing, weights 1–10, seed 1.
func rulerNetwork(tb testing.TB) *graph.Graph {
	tb.Helper()
	ds, err := workload.Generate(workload.RoadNetworkSpec{
		Width: 30, Height: 20,
		DiagonalFraction: 0.15, MissingFraction: 0.25,
		MinWeight: 1, MaxWeight: 10, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Graph
}

// trafficBatches derives n weight batches the way the end-to-end benchmark
// does: each moves a share alpha of the live edges of g by up to ±30 % of
// their initial weight.
func trafficBatches(g *graph.Graph, alpha float64, n int, seed int64) [][]graph.WeightUpdate {
	tm := workload.NewTrafficModel(alpha, 0.3, seed)
	out := make([][]graph.WeightUpdate, n)
	for i := range out {
		for _, u := range tm.Derive(g.NumEdges(), false, g.InitialWeight) {
			if g.EdgeAlive(u.Edge) {
				out[i] = append(out[i], u)
			}
		}
	}
	return out
}

// BenchmarkBuild is Build on the end-to-end benchmark's road network at the
// two subgraph sizes its workloads use, z = 80 and z = 200: the largest term
// of its setup_s.
func BenchmarkBuild(b *testing.B) {
	g := rulerNetwork(b)
	for _, z := range []int{80, 200} {
		part, err := partition.PartitionGraph(g, z)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("z%d", z), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(part, Config{Xi: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyUpdates is the dtlp layer of the write path: ApplyUpdatesStats
// on the end-to-end benchmark's road network, after the α = 1 warm-up batch,
// cycling through 40 pre-derived batches at the shares of edges the
// benchmark's workloads move (α 0.05 everywhere, 0.2 on rush-mixed).
func BenchmarkApplyUpdates(b *testing.B) {
	g := rulerNetwork(b)
	for _, c := range []struct {
		z     int
		alpha float64
	}{{80, 0.05}, {80, 0.2}, {200, 0.05}} {
		b.Run(fmt.Sprintf("z%d/alpha%g", c.z, c.alpha), func(b *testing.B) {
			part, err := partition.PartitionGraph(g, c.z)
			if err != nil {
				b.Fatal(err)
			}
			x, err := Build(part, Config{Xi: 3})
			if err != nil {
				b.Fatal(err)
			}
			if err := x.ApplyUpdates(trafficBatches(g, 1, 1, 2)[0]); err != nil {
				b.Fatal(err)
			}
			batches := trafficBatches(g, c.alpha, 40, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.ApplyUpdatesStats(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
