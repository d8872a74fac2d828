// Package testutil provides shared graph fixtures and reference
// implementations used by the test suites of the other packages.  The
// fixtures include a small road network modelled on the running example of
// the paper (Figures 3-4), regular grids, and random connected graphs, plus a
// brute-force k-shortest-path enumerator used as a correctness oracle.
package testutil

import (
	"math/rand"
	"runtime"
	"testing"

	"kspdg/internal/graph"
)

// PaperVertex names the vertices of the paper-style example graph for
// readability in tests: index i corresponds to paper vertex v_{i+1} for
// v1..v14, and indices 14..17 correspond to v16..v19.
const (
	V1 graph.VertexID = iota
	V2
	V3
	V4
	V5
	V6
	V7
	V8
	V9
	V10
	V11
	V12
	V13
	V14
	V16
	V17
	V18
	V19
)

// PaperGraphEdges returns the edge list of the example road network used
// throughout the tests.  The network has 18 vertices and 25 edges organised
// in four natural regions that a partitioner with z=6 splits along the
// boundary vertices v4, v6, v9, v10, v13, v14 — mirroring the structure of
// the running example in the paper.
func PaperGraphEdges() []graph.Edge {
	return []graph.Edge{
		// Region 1: v1..v6
		{U: V1, V: V2, Weight: 3}, {U: V1, V: V4, Weight: 3}, {U: V2, V: V3, Weight: 6},
		{U: V2, V: V5, Weight: 3}, {U: V3, V: V6, Weight: 2}, {U: V4, V: V5, Weight: 4},
		{U: V5, V: V6, Weight: 4},
		// Region 2: v4,v6,v7,v8,v9,v10
		{U: V4, V: V7, Weight: 3}, {U: V7, V: V8, Weight: 3}, {U: V8, V: V9, Weight: 5},
		{U: V6, V: V9, Weight: 4}, {U: V6, V: V10, Weight: 6}, {U: V9, V: V10, Weight: 4},
		// Region 3: v9,v10,v11,v12,v13,v14
		{U: V9, V: V11, Weight: 5}, {U: V10, V: V14, Weight: 7}, {U: V10, V: V11, Weight: 5},
		{U: V11, V: V12, Weight: 3}, {U: V12, V: V13, Weight: 3}, {U: V13, V: V14, Weight: 6},
		// Region 4: v13,v14,v16,v17,v18,v19
		{U: V13, V: V16, Weight: 5}, {U: V16, V: V14, Weight: 3}, {U: V13, V: V18, Weight: 3},
		{U: V18, V: V17, Weight: 2}, {U: V17, V: V16, Weight: 2}, {U: V18, V: V19, Weight: 3},
	}
}

// PaperGraph builds the example road network as an undirected dynamic graph.
func PaperGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder(18, false)
	for _, e := range PaperGraphEdges() {
		if _, err := b.AddEdge(e.U, e.V, e.Weight); err != nil {
			tb.Fatalf("testutil: building paper graph: %v", err)
		}
	}
	return b.Build()
}

// LineGraph builds a path graph 0-1-...-(n-1) with unit weights.
func LineGraph(tb testing.TB, n int) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		if _, err := b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1); err != nil {
			tb.Fatalf("testutil: building line graph: %v", err)
		}
	}
	return b.Build()
}

// GridGraph builds a w x h grid graph with the given uniform edge weight.
// Vertex (x, y) has index y*w+x.
func GridGraph(w, h int, weight float64) *graph.Graph {
	b := graph.NewBuilder(w*h, false)
	id := func(x, y int) graph.VertexID { return graph.VertexID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y), weight)
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1), weight)
			}
		}
	}
	return b.Build()
}

// RandomConnected builds a connected random undirected graph with n vertices:
// a random spanning tree plus approximately extra additional edges, with
// weights uniform in [1, 10).
func RandomConnected(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	present := make(map[[2]graph.VertexID]bool)
	addEdge := func(u, v graph.VertexID, w float64) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		key := [2]graph.VertexID{u, v}
		if present[key] {
			return
		}
		present[key] = true
		b.AddEdge(u, v, w)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := graph.VertexID(perm[i])
		v := graph.VertexID(perm[rng.Intn(i)])
		addEdge(u, v, 1+rng.Float64()*9)
	}
	for i := 0; i < extra; i++ {
		addEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), 1+rng.Float64()*9)
	}
	return b.Build()
}

// BruteForceKSP enumerates all simple paths from s to t by depth-first search
// and returns the k shortest under the graph's current weights.  It is the
// correctness oracle for Dijkstra, Yen and KSP-DG on small graphs.
func BruteForceKSP(g graph.WeightedView, s, t graph.VertexID, k int) []graph.Path {
	var all []graph.Path
	onPath := make([]bool, g.NumVertices())
	var verts []graph.VertexID
	var dfs func(u graph.VertexID, dist float64)
	dfs = func(u graph.VertexID, dist float64) {
		onPath[u] = true
		verts = append(verts, u)
		if u == t {
			all = append(all, graph.Path{Vertices: append([]graph.VertexID(nil), verts...), Dist: dist})
		} else {
			for _, a := range g.Neighbors(u) {
				if !onPath[a.To] {
					dfs(a.To, dist+g.Weight(a.Edge))
				}
			}
		}
		onPath[u] = false
		verts = verts[:len(verts)-1]
	}
	dfs(s, 0)
	sortPaths(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// sortPaths sorts paths by (distance, lexicographic sequence).
func sortPaths(ps []graph.Path) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && graph.ComparePaths(ps[j], ps[j-1]) < 0; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// PerturbWeights derives a batch that changes the weight of a fraction alpha
// of g's live edges by a factor uniform in [-tau, +tau], never letting a
// weight drop below minWeight.  It applies nothing: an index over g writes
// the batch to g when it applies it (dtlp.Index.ApplyUpdates).
func PerturbWeights(g *graph.Graph, rng *rand.Rand, alpha, tau, minWeight float64) []graph.WeightUpdate {
	var batch []graph.WeightUpdate
	cur := g.Snapshot()
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if rng.Float64() >= alpha {
			continue
		}
		if !g.EdgeAlive(e) {
			continue // tombstone of a deleted edge: no weight to perturb
		}
		factor := 1 + (rng.Float64()*2-1)*tau
		w := cur.Weight(e) * factor
		if w < minWeight {
			w = minWeight
		}
		batch = append(batch, graph.WeightUpdate{Edge: e, NewWeight: w})
	}
	return batch
}

// RandomStronglyConnected builds a strongly connected random directed graph
// with n vertices: both directions of a random spanning tree (independent
// weights per direction) plus approximately extra additional arcs, with
// weights uniform in [1, 10).
func RandomStronglyConnected(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n, true)
	present := make(map[[2]graph.VertexID]bool)
	addArc := func(u, v graph.VertexID, w float64) {
		if u == v {
			return
		}
		key := [2]graph.VertexID{u, v}
		if present[key] {
			return
		}
		present[key] = true
		b.AddEdge(u, v, w)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := graph.VertexID(perm[i])
		v := graph.VertexID(perm[rng.Intn(i)])
		addArc(u, v, 1+rng.Float64()*9)
		addArc(v, u, 1+rng.Float64()*9)
	}
	for i := 0; i < extra; i++ {
		addArc(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), 1+rng.Float64()*9)
	}
	return b.Build()
}

// SetGOMAXPROCS runs the rest of the test at GOMAXPROCS n and restores the
// previous value on cleanup.  The worker executor and DTLP maintenance size
// their fan-out with GOMAXPROCS, so this is how a test proves their output
// does not depend on the width.  Process-wide: safe only because no test in
// the tree uses t.Parallel.
func SetGOMAXPROCS(tb testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
