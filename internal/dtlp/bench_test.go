package dtlp

import (
	"fmt"
	"testing"

	"kspdg/internal/partition"
	"kspdg/internal/workload"
)

// BenchmarkBuild is Build on the end-to-end benchmark's road network (a 30×20
// grid, 15 % diagonals, 25 % of edges missing, weights 1–10, seed 1) at the
// two subgraph sizes its workloads use, z = 80 and z = 200: the largest term
// of its setup_s.
func BenchmarkBuild(b *testing.B) {
	ds, err := workload.Generate(workload.RoadNetworkSpec{
		Width: 30, Height: 20,
		DiagonalFraction: 0.15, MissingFraction: 0.25,
		MinWeight: 1, MaxWeight: 10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, z := range []int{80, 200} {
		part, err := partition.PartitionGraph(ds.Graph, z)
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
