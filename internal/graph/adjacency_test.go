package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzAdjacencyMatchesEdges builds a random directed or undirected multigraph
// from the seed, applies a random topology batch to it, and holds the
// adjacency of both graphs to the edge list: every vertex's arcs are exactly
// its live incident edges in edge-id order, in a view capped at its own arcs.
func FuzzAdjacencyMatchesEdges(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		b := NewBuilder(n, rng.Intn(2) == 0)
		if n > 1 {
			for range rng.Intn(3 * n) {
				u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
				if u != v {
					b.AddEdge(u, v, float64(1+rng.Intn(9)))
				}
			}
		}
		g := b.Build()
		checkAdjacency(t, "built", g)

		var up TopologyUpdate
		up.AddVertices = rng.Intn(3)
		newN := n + up.AddVertices
		for v := range n {
			if rng.Intn(6) == 0 {
				up.DeleteVertices = append(up.DeleteVertices, VertexID(v))
			}
		}
		for e := range g.NumEdges() {
			if rng.Intn(4) == 0 {
				up.DeleteEdges = append(up.DeleteEdges, EdgeID(e))
			}
		}
		if newN > 1 {
			for range rng.Intn(2 * newN) {
				u, v := VertexID(rng.Intn(newN)), VertexID(rng.Intn(newN))
				if u != v {
					up.InsertEdges = append(up.InsertEdges, Edge{U: u, V: v, Weight: float64(1 + rng.Intn(9))})
				}
			}
		}
		ng, _, _, err := g.ApplyTopology(up)
		if err != nil {
			t.Fatalf("ApplyTopology: %v", err)
		}
		checkAdjacency(t, "after topology", ng)
	})
}

// checkAdjacency compares g's adjacency accessors with a linear scan of its
// edge list.
func checkAdjacency(t *testing.T, label string, g *Graph) {
	t.Helper()
	snap := g.Snapshot()
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		var want []Arc
		for e, ends := range g.ends {
			if !g.EdgeAlive(EdgeID(e)) {
				continue
			}
			if ends.U == v {
				want = append(want, Arc{To: ends.V, Edge: EdgeID(e)})
			} else if !g.directed && ends.V == v {
				want = append(want, Arc{To: ends.U, Edge: EdgeID(e)})
			}
		}
		got := g.Neighbors(v)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", label, v, got, want)
		}
		if !slices.Equal(snap.Neighbors(v), got) {
			t.Fatalf("%s: Snapshot.Neighbors(%d) = %v, want %v", label, v, snap.Neighbors(v), got)
		}
		if g.Degree(v) != len(got) {
			t.Fatalf("%s: Degree(%d) = %d, want %d", label, v, g.Degree(v), len(got))
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: Neighbors(%d) has capacity %d beyond its %d arcs", label, v, cap(got), len(got))
		}
		for w := VertexID(0); int(w) < g.NumVertices(); w++ {
			want := NoEdge
			for e, ends := range g.ends {
				if g.EdgeAlive(EdgeID(e)) && (ends == Endpoints{U: v, V: w} || !g.directed && ends == Endpoints{U: w, V: v}) {
					want = EdgeID(e)
					break
				}
			}
			if e, ok := g.EdgeBetween(v, w); ok != (want != NoEdge) || e != want {
				t.Fatalf("%s: EdgeBetween(%d,%d) = %d,%v, want %d", label, v, w, e, ok, want)
			}
		}
	}
}
