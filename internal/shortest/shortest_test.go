package shortest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kspdg/internal/graph"
	"kspdg/internal/testutil"
)

func TestDijkstraLine(t *testing.T) {
	g := testutil.LineGraph(t, 10)
	tree := Dijkstra(g.Snapshot(), 0, nil)
	for v := 0; v < 10; v++ {
		if tree.Dist[v] != float64(v) {
			t.Errorf("Dist[%d] = %g, want %d", v, tree.Dist[v], v)
		}
	}
	p, ok := tree.PathTo(9)
	if !ok || p.Len() != 9 || p.Dist != 9 {
		t.Errorf("PathTo(9) = %v, %v", p, ok)
	}
}

func TestDijkstraMatchesBruteForce(t *testing.T) {
	g := testutil.PaperGraph(t)
	cases := []struct{ s, t graph.VertexID }{
		{testutil.V4, testutil.V13}, {testutil.V1, testutil.V19},
		{testutil.V3, testutil.V16}, {testutil.V7, testutil.V17},
	}
	for _, c := range cases {
		p, ok := ShortestPath(g.Snapshot(), c.s, c.t, nil)
		if !ok {
			t.Fatalf("no path %d->%d", c.s, c.t)
		}
		want := testutil.BruteForceKSP(g.Snapshot(), c.s, c.t, 1)
		if len(want) == 0 {
			t.Fatalf("brute force found no path %d->%d", c.s, c.t)
		}
		if math.Abs(p.Dist-want[0].Dist) > 1e-9 {
			t.Errorf("ShortestPath(%d,%d) dist = %g, brute force = %g", c.s, c.t, p.Dist, want[0].Dist)
		}
		if err := p.Validate(g.Snapshot()); err != nil {
			t.Errorf("invalid path: %v", err)
		}
	}
}

func TestShortestPathSameVertex(t *testing.T) {
	g := testutil.LineGraph(t, 3)
	p, ok := ShortestPath(g.Snapshot(), 1, 1, nil)
	if !ok || p.Len() != 0 || p.Dist != 0 {
		t.Errorf("s==t path = %v, %v", p, ok)
	}
	if d := ShortestDistance(g.Snapshot(), 2, 2, nil); d != 0 {
		t.Errorf("ShortestDistance(s,s) = %g", d)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	if _, ok := ShortestPath(g.Snapshot(), 0, 3, nil); ok {
		t.Errorf("expected no path between components")
	}
	if d := ShortestDistance(g.Snapshot(), 0, 3, nil); !math.IsInf(d, 1) {
		t.Errorf("distance to unreachable = %g, want +Inf", d)
	}
	tree := Dijkstra(g.Snapshot(), 0, nil)
	if tree.Reachable(3) {
		t.Errorf("vertex 3 should be unreachable")
	}
	if _, ok := tree.PathTo(3); ok {
		t.Errorf("PathTo unreachable should report false")
	}
}

func TestDijkstraForbiddenVertex(t *testing.T) {
	g := testutil.PaperGraph(t)
	// Forbid v9; v4 -> v13 must route around it (e.g. through v10).
	opts := &Options{ForbiddenVertices: map[graph.VertexID]bool{testutil.V9: true}}
	p, ok := ShortestPath(g.Snapshot(), testutil.V4, testutil.V13, opts)
	if !ok {
		t.Fatal("expected a path avoiding v9")
	}
	if p.Contains(testutil.V9) {
		t.Errorf("path %v contains forbidden vertex", p)
	}
	unrestricted, _ := ShortestPath(g.Snapshot(), testutil.V4, testutil.V13, nil)
	if p.Dist < unrestricted.Dist-1e-9 {
		t.Errorf("restricted path cannot be shorter than unrestricted")
	}
}

func TestDijkstraForbiddenEdge(t *testing.T) {
	g := testutil.LineGraph(t, 5)
	e, _ := g.EdgeBetween(2, 3)
	opts := &Options{ForbiddenEdges: map[graph.EdgeID]bool{e: true}}
	if _, ok := ShortestPath(g.Snapshot(), 0, 4, opts); ok {
		t.Errorf("line graph with cut edge should be disconnected")
	}
}

func TestDijkstraCustomWeight(t *testing.T) {
	g := testutil.PaperGraph(t)
	// Hop-count metric: every edge weighs 1.
	opts := &Options{Weight: func(graph.EdgeID) float64 { return 1 }}
	p, ok := ShortestPath(g.Snapshot(), testutil.V1, testutil.V13, opts)
	if !ok {
		t.Fatal("no path")
	}
	if p.Dist != float64(p.Len()) {
		t.Errorf("hop metric distance %g != edges %d", p.Dist, p.Len())
	}
}

func TestDijkstraDirected(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	if _, ok := ShortestPath(g.Snapshot(), 2, 0, nil); ok {
		t.Errorf("reverse path should not exist in directed graph")
	}
	p, ok := ShortestPath(g.Snapshot(), 0, 2, nil)
	if !ok || p.Dist != 2 {
		t.Errorf("forward path = %v, %v", p, ok)
	}
}

func TestDijkstraRespectsSnapshotWeights(t *testing.T) {
	g := testutil.LineGraph(t, 4)
	snap := g.Snapshot()
	e, _ := g.EdgeBetween(1, 2)
	if err := g.ApplyUpdates([]graph.WeightUpdate{{Edge: e, NewWeight: 100}}); err != nil {
		t.Fatal(err)
	}
	p, _ := ShortestPath(snap, 0, 3, nil)
	if p.Dist != 3 {
		t.Errorf("snapshot search saw later update: dist = %g", p.Dist)
	}
	p2, _ := ShortestPath(g.Snapshot(), 0, 3, nil)
	if p2.Dist != 102 {
		t.Errorf("new snapshot search dist = %g, want 102", p2.Dist)
	}
}

func TestYenMatchesBruteForce(t *testing.T) {
	g := testutil.PaperGraph(t)
	cases := []struct {
		s, t graph.VertexID
		k    int
	}{
		{testutil.V4, testutil.V13, 2}, {testutil.V4, testutil.V13, 6},
		{testutil.V1, testutil.V19, 4}, {testutil.V3, testutil.V14, 3},
	}
	for _, c := range cases {
		got := Yen(g.Snapshot(), c.s, c.t, c.k, nil)
		want := testutil.BruteForceKSP(g.Snapshot(), c.s, c.t, c.k)
		if len(got) != len(want) {
			t.Fatalf("Yen(%d,%d,%d) returned %d paths, brute force %d", c.s, c.t, c.k, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Errorf("Yen(%d,%d,%d) path %d dist = %g, brute force = %g",
					c.s, c.t, c.k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestYenProperties(t *testing.T) {
	g := testutil.PaperGraph(t)
	paths := Yen(g.Snapshot(), testutil.V1, testutil.V19, 8, nil)
	if len(paths) == 0 {
		t.Fatal("expected paths")
	}
	sp, _ := ShortestPath(g.Snapshot(), testutil.V1, testutil.V19, nil)
	if paths[0].Dist != sp.Dist {
		t.Errorf("first Yen path (%g) must equal Dijkstra distance (%g)", paths[0].Dist, sp.Dist)
	}
	seen := map[string]bool{}
	for i, p := range paths {
		if !p.IsSimple() {
			t.Errorf("path %d not simple: %v", i, p)
		}
		if err := p.Validate(g.Snapshot()); err != nil {
			t.Errorf("path %d invalid: %v", i, err)
		}
		if math.Abs(p.EvalDist(g.Snapshot())-p.Dist) > 1e-9 {
			t.Errorf("path %d reported dist %g but edges sum to %g", i, p.Dist, p.EvalDist(g.Snapshot()))
		}
		if i > 0 && paths[i-1].Dist > p.Dist+1e-9 {
			t.Errorf("paths not sorted: %g > %g", paths[i-1].Dist, p.Dist)
		}
		key := graph.PathKey(p)
		if seen[key] {
			t.Errorf("duplicate path %v", p)
		}
		seen[key] = true
		if p.Source() != testutil.V1 || p.Target() != testutil.V19 {
			t.Errorf("path %d has wrong endpoints: %v", i, p)
		}
	}
}

func TestYenEdgeCases(t *testing.T) {
	g := testutil.LineGraph(t, 4)
	if got := Yen(g.Snapshot(), 0, 3, 0, nil); got != nil {
		t.Errorf("k=0 should return nil")
	}
	// A line graph has exactly one simple path between endpoints.
	paths := Yen(g.Snapshot(), 0, 3, 5, nil)
	if len(paths) != 1 {
		t.Errorf("line graph should yield 1 path, got %d", len(paths))
	}
	// Same source and target.
	paths = Yen(g.Snapshot(), 2, 2, 3, nil)
	if len(paths) != 1 || paths[0].Len() != 0 {
		t.Errorf("s==t should yield the trivial path, got %v", paths)
	}
	// Disconnected.
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	dg := b.Build()
	if got := Yen(dg.Snapshot(), 0, 3, 3, nil); got != nil {
		t.Errorf("disconnected should return nil, got %v", got)
	}
}

func TestYenSquareGraphAllPaths(t *testing.T) {
	// Square 0-1, 1-3, 0-2, 2-3 plus diagonal 0-3: exactly 3 simple paths 0->3.
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(0, 2, 2)
	b.AddEdge(2, 3, 2)
	b.AddEdge(0, 3, 5)
	g := b.Build()
	paths := Yen(g.Snapshot(), 0, 3, 10, nil)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3: %v", len(paths), paths)
	}
	wantDists := []float64{2, 4, 5}
	for i, w := range wantDists {
		if paths[i].Dist != w {
			t.Errorf("path %d dist = %g, want %g", i, paths[i].Dist, w)
		}
	}
}

func TestYenWithForbiddenVertex(t *testing.T) {
	g := testutil.PaperGraph(t)
	opts := &Options{ForbiddenVertices: map[graph.VertexID]bool{testutil.V9: true}}
	paths := Yen(g.Snapshot(), testutil.V4, testutil.V13, 4, opts)
	for _, p := range paths {
		if p.Contains(testutil.V9) {
			t.Errorf("path %v contains forbidden vertex", p)
		}
	}
}

func TestYenWithCustomWeight(t *testing.T) {
	g := testutil.PaperGraph(t)
	hop := &Options{Weight: func(graph.EdgeID) float64 { return 1 }}
	paths := Yen(g.Snapshot(), testutil.V1, testutil.V13, 3, hop)
	for i := 1; i < len(paths); i++ {
		if paths[i-1].Dist > paths[i].Dist {
			t.Errorf("hop-metric paths not sorted")
		}
	}
	if len(paths) > 0 && paths[0].Dist != float64(paths[0].Len()) {
		t.Errorf("hop metric dist mismatch")
	}
}

func TestKShortestDistinctLengths(t *testing.T) {
	// Diamond with two equal-length routes plus one longer route.
	b := graph.NewBuilder(5, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 4, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 4, 1)
	b.AddEdge(0, 3, 2)
	b.AddEdge(3, 4, 2)
	g := b.Build()
	// limit=2 keeps both length-2 paths (ties) and the single length-4 path.
	paths := KShortestDistinctLengths(g.Snapshot(), 0, 4, 2, 10, nil)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3 (ties kept): %v", len(paths), paths)
	}
	if paths[0].Dist != 2 || paths[1].Dist != 2 || paths[2].Dist != 4 {
		t.Errorf("lengths = %g,%g,%g; want 2,2,4", paths[0].Dist, paths[1].Dist, paths[2].Dist)
	}
	// limit 1 keeps only the smallest length class (both tied paths).
	one := KShortestDistinctLengths(g.Snapshot(), 0, 4, 1, 10, nil)
	if len(one) != 2 || one[0].Dist != 2 || one[1].Dist != 2 {
		t.Errorf("limit=1 result wrong: %v", one)
	}
	if got := KShortestDistinctLengths(g.Snapshot(), 0, 4, 0, 10, nil); got != nil {
		t.Errorf("limit=0 should return nil")
	}
}

// Property test: on random connected graphs, Yen's first path always matches
// Dijkstra, all paths are simple, valid, and sorted.
func TestPropertyYenOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(20)
		g := testutil.RandomConnected(rng, n, n)
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		k := 1 + rng.Intn(5)
		paths := Yen(g.Snapshot(), s, tt, k, nil)
		if s == tt {
			return len(paths) == 1 && paths[0].Len() == 0
		}
		sp, ok := ShortestPath(g.Snapshot(), s, tt, nil)
		if !ok {
			return len(paths) == 0
		}
		if len(paths) == 0 || math.Abs(paths[0].Dist-sp.Dist) > 1e-9 {
			return false
		}
		for i, p := range paths {
			if !p.IsSimple() || p.Validate(g.Snapshot()) != nil {
				return false
			}
			if p.Source() != s || p.Target() != tt {
				return false
			}
			if i > 0 && paths[i-1].Dist > p.Dist+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property test: Yen matches the brute-force oracle on small random graphs.
func TestPropertyYenMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(6)
		g := testutil.RandomConnected(rng, n, 4)
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			return true
		}
		k := 1 + rng.Intn(4)
		got := Yen(g.Snapshot(), s, tt, k, nil)
		want := testutil.BruteForceKSP(g.Snapshot(), s, tt, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property test: Dijkstra distances obey the relaxation condition
// dist[v] <= dist[u] + w(u,v) for every edge.
func TestPropertyDijkstraRelaxed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		g := testutil.RandomConnected(rng, n, 2*n)
		s := graph.VertexID(rng.Intn(n))
		tree := Dijkstra(g.Snapshot(), s, nil)
		for u := graph.VertexID(0); int(u) < n; u++ {
			for _, a := range g.Neighbors(u) {
				if tree.Dist[a.To] > tree.Dist[u]+g.Snapshot().Weight(a.Edge)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
