package dtlp

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
)

// checkPathsAreTheirEdges holds every bounding path of x to its edges: its
// derived vertices are a simple walk from Pair.A to Pair.B that the edges
// take hop by hop, Vfrags is the sum of the edges' initial weights and Dist
// the sum of their current weights, both in path order.  The Dist check holds
// until the first weight update, which adjusts Dist by deltas.
func checkPathsAreTheirEdges(t *testing.T, x *Index) {
	t.Helper()
	part := x.Partition()
	directed := part.Parent().Directed()
	for id := range part.NumSubgraphs() {
		si := x.SubgraphIndex(partition.SubgraphID(id))
		snap := si.Subgraph().Local.Snapshot()
		seen := 0
		for _, key := range si.pairKeys {
			for _, bp := range si.BoundingPaths(key.A, key.B) {
				seen++
				vs := bp.Vertices
				if bp.Pair != key || len(vs) != len(bp.Edges)+1 || vs[0] != key.A || vs[len(vs)-1] != key.B {
					t.Fatalf("subgraph %d path %d: pair %v, vertices %v, %d edges, want a walk from %d to %d", id, bp.ID, bp.Pair, vs, len(bp.Edges), key.A, key.B)
				}
				if len(slices.Compact(slices.Sorted(slices.Values(vs)))) != len(vs) {
					t.Fatalf("subgraph %d path %d: vertices %v repeat a vertex", id, bp.ID, vs)
				}
				vfrags, dist := 0.0, 0.0
				for i, e := range bp.Edges {
					ends := snap.EdgeEndpoints(e)
					u, v := vs[i], vs[i+1]
					if !(ends.U == u && ends.V == v) && (directed || !(ends.U == v && ends.V == u)) {
						t.Fatalf("subgraph %d path %d: edge %d (%d-%d) does not lead from %d to %d", id, bp.ID, e, ends.U, ends.V, u, v)
					}
					vfrags += snap.InitialWeight(e)
					dist += snap.Weight(e)
				}
				if bp.Vfrags != vfrags || bp.Dist != dist {
					t.Fatalf("subgraph %d path %d: Vfrags %v and Dist %v, but its edges %v sum to %v vfrags and %v", id, bp.ID, bp.Vfrags, bp.Dist, bp.Edges, vfrags, dist)
				}
			}
		}
		if seen != si.NumBoundingPaths() {
			t.Fatalf("subgraph %d: %d paths reached through their pairs, %d indexed", id, seen, si.NumBoundingPaths())
		}
	}
}

// checkRoundTrip exports x, imports the records into a fresh index and
// checks that it exports the same records, has the same Stats and passes
// checkPathsAreTheirEdges.
func checkRoundTrip(t *testing.T, x *Index) {
	t.Helper()
	recs := exportPaths(t, x)
	y, err := importPaths(x, recs)
	if err != nil {
		t.Fatal(err)
	}
	if again := exportPaths(t, y); !reflect.DeepEqual(again, recs) {
		t.Fatal("an imported index exports other records than it was given")
	}
	if xs, ys := x.Stats(), y.Stats(); xs != ys {
		t.Fatalf("Stats %+v after import, %+v before", ys, xs)
	}
	checkPathsAreTheirEdges(t, y)
}

// TestBoundingPathsRecordTheArcsTheSearchTook builds an index over a ring in
// which every hop has two parallel edges, the first with 9 vfrags and the
// second with 1.  The vfrag search crosses every hop by its 1-vfrag edge, so
// that is the edge each bounding path must record: recording the first edge
// of the hop instead gives paths whose Vfrags (counted on the 1-edges) and
// Dist (summed over the 9-edges) describe different routes.
func TestBoundingPathsRecordTheArcsTheSearchTook(t *testing.T) {
	const n = 8
	b := graph.NewBuilder(n, false)
	for i := range graph.VertexID(n) {
		for _, w := range []float64{9, 1} {
			if _, err := b.AddEdge(i, (i+1)%n, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	part, err := partition.PartitionGraph(b.Build(), 4)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(part, Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	if x.Stats().NumBoundingPaths == 0 {
		t.Fatal("the ring indexed no bounding paths")
	}
	checkPathsAreTheirEdges(t, x)
	checkRoundTrip(t, x)
}

// TestBoundingPathVerticesMatchEnumeration checks that the vertices the
// accessors derive from a path's edges are, element for element, the ones
// the vfrag enumeration returned for the pair: on the benchmark's road
// network at both of its subgraph sizes and on a directed random graph.
func TestBoundingPathVerticesMatchEnumeration(t *testing.T) {
	ruler := rulerNetwork(t)
	directed := testutil.RandomStronglyConnected(rand.New(rand.NewSource(7)), 60, 40)
	for _, c := range []struct {
		g *graph.Graph
		z int
	}{{ruler, 80}, {ruler, 200}, {directed, 12}} {
		t.Run(fmt.Sprintf("directed=%v/z%d", c.g.Directed(), c.z), func(t *testing.T) {
			part, err := partition.PartitionGraph(c.g, c.z)
			if err != nil {
				t.Fatal(err)
			}
			x, err := Build(part, Config{Xi: 3})
			if err != nil {
				t.Fatal(err)
			}
			cfg := x.Config()
			paths := 0
			for id := range part.NumSubgraphs() {
				si := x.SubgraphIndex(partition.SubgraphID(id))
				local := si.Subgraph().Local.Snapshot()
				opts := &shortest.Options{Weight: local.InitialWeight}
				for _, key := range si.pairKeys {
					want := shortest.KShortestDistinctLengths(local, key.A, key.B, cfg.Xi, cfg.MaxEnumerate, opts)
					got := si.BoundingPaths(key.A, key.B)
					if len(got) != len(want) {
						t.Fatalf("subgraph %d pair %v: %d bounding paths, enumeration gives %d", id, key, len(got), len(want))
					}
					for i := range got {
						if !slices.Equal(got[i].Vertices, want[i].Vertices) {
							t.Fatalf("subgraph %d pair %v path %d: vertices %v, enumeration gives %v", id, key, i, got[i].Vertices, want[i].Vertices)
						}
					}
					paths += len(got)
				}
			}
			if paths == 0 || paths != x.Stats().NumBoundingPaths {
				t.Fatalf("compared %d paths of %d", paths, x.Stats().NumBoundingPaths)
			}
		})
	}
}

// TestBoundingPathsBelongToTheCaller reverses, in place, the Vertices and
// Edges of every bounding path the accessors return on the benchmark's road
// network at z = 80, and checks that the index did not change with them: its
// paths are still their edges, and its next export streams the records the
// first one did.
func TestBoundingPathsBelongToTheCaller(t *testing.T) {
	part, err := partition.PartitionGraph(rulerNetwork(t), 80)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(part, Config{Xi: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := exportPaths(t, x)
	reversed := 0
	overwrite := func(bps []BoundingPath) {
		for _, bp := range bps {
			slices.Reverse(bp.Vertices)
			slices.Reverse(bp.Edges)
			reversed++
		}
	}
	for id := range part.NumSubgraphs() {
		si := x.SubgraphIndex(partition.SubgraphID(id))
		for _, key := range si.pairKeys {
			overwrite(si.BoundingPaths(key.A, key.B))
		}
		for e := range graph.EdgeID(si.Subgraph().Local.NumEdges()) {
			overwrite(si.PathsThroughEdge(e))
		}
	}
	if reversed == 0 {
		t.Fatal("the accessors returned no bounding paths")
	}
	checkPathsAreTheirEdges(t, x)
	if after := exportPaths(t, x); !reflect.DeepEqual(after, before) {
		t.Fatal("overwriting the accessors' paths changed the exported records")
	}
}
