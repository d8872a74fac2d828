package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
)

func buildEngine(t testing.TB, g *graph.Graph, z, xi int) (*partition.Partition, *dtlp.Index, *Engine) {
	t.Helper()
	p, err := partition.PartitionGraph(g, z)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: xi})
	if err != nil {
		t.Fatalf("dtlp: %v", err)
	}
	return p, x, NewEngine(x, nil, Options{})
}

// assertMatchesOracle checks that the engine's k shortest path distances
// exactly match the brute-force oracle for the query.
func assertMatchesOracle(t *testing.T, g *graph.Graph, e *Engine, s, tt graph.VertexID, k int) {
	t.Helper()
	res, err := e.QueryViewCtx(context.Background(), nil, s, tt, k)
	if err != nil {
		t.Fatalf("Query(%d,%d,%d): %v", s, tt, k, err)
	}
	want := testutil.BruteForceKSP(g.Snapshot(), s, tt, k)
	if len(res.Paths) != len(want) {
		t.Fatalf("Query(%d,%d,%d) returned %d paths, oracle %d\n got: %v\nwant: %v",
			s, tt, k, len(res.Paths), len(want), res.Paths, want)
	}
	for i := range want {
		if math.Abs(res.Paths[i].Dist-want[i].Dist) > 1e-9 {
			t.Errorf("Query(%d,%d,%d) path %d dist = %g, oracle %g", s, tt, k, i, res.Paths[i].Dist, want[i].Dist)
		}
		if err := res.Paths[i].Validate(g.Snapshot()); err != nil {
			t.Errorf("Query(%d,%d,%d) path %d invalid: %v", s, tt, k, i, err)
		}
		if math.Abs(res.Paths[i].EvalDist(g.Snapshot())-res.Paths[i].Dist) > 1e-9 {
			t.Errorf("Query(%d,%d,%d) path %d reported dist %g but edges sum to %g",
				s, tt, k, i, res.Paths[i].Dist, res.Paths[i].EvalDist(g.Snapshot()))
		}
		if res.Paths[i].Source() != s || res.Paths[i].Target() != tt {
			t.Errorf("Query(%d,%d,%d) path %d endpoints wrong: %v", s, tt, k, i, res.Paths[i])
		}
	}
}

func TestQueryBoundaryEndpoints(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, _, e := buildEngine(t, g, 6, 2)
	boundary := p.BoundaryVertices()
	if len(boundary) < 2 {
		t.Skip("not enough boundary vertices")
	}
	for _, k := range []int{1, 2, 3, 5} {
		assertMatchesOracle(t, g, e, boundary[0], boundary[len(boundary)-1], k)
	}
}

func TestQueryNonBoundaryEndpoints(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, _, e := buildEngine(t, g, 6, 2)
	// Pick two non-boundary vertices far apart.
	var interior []graph.VertexID
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if !p.IsBoundary(v) {
			interior = append(interior, v)
		}
	}
	if len(interior) < 2 {
		t.Skip("no interior vertices")
	}
	s, tt := interior[0], interior[len(interior)-1]
	for _, k := range []int{1, 2, 4} {
		assertMatchesOracle(t, g, e, s, tt, k)
	}
}

func TestQueryMixedEndpoints(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, _, e := buildEngine(t, g, 6, 2)
	boundary := p.BoundaryVertices()
	var interior []graph.VertexID
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if !p.IsBoundary(v) {
			interior = append(interior, v)
		}
	}
	if len(boundary) == 0 || len(interior) == 0 {
		t.Skip("need both boundary and interior vertices")
	}
	assertMatchesOracle(t, g, e, boundary[0], interior[len(interior)-1], 3)
	assertMatchesOracle(t, g, e, interior[0], boundary[len(boundary)-1], 3)
}

func TestQuerySameSubgraphInteriorEndpoints(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, _, e := buildEngine(t, g, 6, 2)
	// Find two interior vertices that share a subgraph.
	var s, tt graph.VertexID = graph.NoVertex, graph.NoVertex
outer:
	for _, sg := range p.Subgraphs {
		var interior []graph.VertexID
		for _, v := range sg.Globals {
			if !p.IsBoundary(v) {
				interior = append(interior, v)
			}
		}
		if len(interior) >= 2 {
			s, tt = interior[0], interior[1]
			break outer
		}
	}
	if s == graph.NoVertex {
		t.Skip("no subgraph with two interior vertices")
	}
	assertMatchesOracle(t, g, e, s, tt, 2)
}

func TestQueryTrivialAndErrorCases(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, _, e := buildEngine(t, g, 6, 1)
	res, err := e.QueryViewCtx(context.Background(), nil, 3, 3, 2)
	if err != nil || len(res.Paths) != 1 || res.Paths[0].Len() != 0 {
		t.Errorf("s==t should return the trivial path, got %v, %v", res.Paths, err)
	}
	if _, err := e.QueryViewCtx(context.Background(), nil, 0, 1, 0); err == nil {
		t.Errorf("k=0 should error")
	}
	if _, err := e.QueryViewCtx(context.Background(), nil, 0, graph.VertexID(g.NumVertices()+3), 1); err == nil {
		t.Errorf("out-of-range target should error")
	}
	if _, err := e.QueryViewCtx(context.Background(), nil, -1, 0, 1); err == nil {
		t.Errorf("negative source should error")
	}
}

func TestQueryDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(8, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 7, 1)
	g := b.Build()
	_, _, e := buildEngine(t, g, 3, 1)
	res, err := e.QueryViewCtx(context.Background(), nil, 0, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 0 {
		t.Errorf("disconnected query should return no paths, got %v", res.Paths)
	}
}

func TestQueryAfterWeightUpdates(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, x, e := buildEngine(t, g, 6, 2)
	rng := rand.New(rand.NewSource(99))
	boundary := p.BoundaryVertices()
	for round := 0; round < 10; round++ {
		batch := testutil.PerturbWeights(g, rng, 0.35, 0.3, 0.1)
		if _, err := x.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		s := boundary[rng.Intn(len(boundary))]
		tt := graph.VertexID(rng.Intn(g.NumVertices()))
		if s == tt {
			continue
		}
		assertMatchesOracle(t, g, e, s, tt, 1+rng.Intn(4))
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, _, e := buildEngine(t, g, 6, 2)
	res, err := e.QueryViewCtx(context.Background(), nil, testutil.V1, testutil.V19, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 {
		t.Errorf("iterations = %d, want >= 1", res.Iterations)
	}
	if res.PairsRefined == 0 {
		t.Errorf("expected refined pairs")
	}
	if res.CandidatesGenerated == 0 {
		t.Errorf("expected generated candidates")
	}
	if res.Elapsed <= 0 {
		t.Errorf("elapsed should be positive")
	}
}

func TestQueryWithExplicitLocalProviderParallel(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(x, NewLocalProvider(p, 4), Options{})
	assertMatchesOracle(t, g, e, testutil.V1, testutil.V19, 4)
}

func TestQueryDirectedGraph(t *testing.T) {
	// Directed ring + chords.
	b := graph.NewBuilder(12, true)
	for i := 0; i < 12; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%12), 1+float64(i%4))
	}
	b.AddEdge(0, 6, 3)
	b.AddEdge(3, 9, 2)
	b.AddEdge(9, 2, 5)
	g := b.Build()
	_, _, e := buildEngine(t, g, 5, 2)
	res, err := e.QueryViewCtx(context.Background(), nil, 0, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := testutil.BruteForceKSP(g.Snapshot(), 0, 7, 3)
	if len(res.Paths) != len(want) {
		t.Fatalf("directed query returned %d paths, oracle %d", len(res.Paths), len(want))
	}
	for i := range want {
		if math.Abs(res.Paths[i].Dist-want[i].Dist) > 1e-9 {
			t.Errorf("directed path %d dist = %g, oracle %g", i, res.Paths[i].Dist, want[i].Dist)
		}
	}
}

func TestQueryOnGrid(t *testing.T) {
	g := testutil.GridGraph(6, 6, 1)
	_, _, e := buildEngine(t, g, 8, 2)
	res, err := e.QueryViewCtx(context.Background(), nil, 0, graph.VertexID(g.NumVertices()-1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 3 {
		t.Fatalf("expected 3 paths, got %d", len(res.Paths))
	}
	// On a unit grid the shortest distance between opposite corners is the
	// Manhattan distance; several ties exist so all three should equal 10.
	for i, p := range res.Paths {
		if p.Dist != 10 {
			t.Errorf("grid path %d dist = %g, want 10", i, p.Dist)
		}
	}
	sp, _ := shortest.ShortestPath(g.Snapshot(), 0, graph.VertexID(g.NumVertices()-1), nil)
	if res.Paths[0].Dist != sp.Dist {
		t.Errorf("first path should match Dijkstra")
	}
}

// Property: KSP-DG matches the brute-force oracle on random graphs, random
// partitions, random endpoints and random k, including after weight changes.
func TestPropertyKSPDGMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 14 + rng.Intn(18)
		g := testutil.RandomConnected(rng, n, n/3)
		p, err := partition.PartitionGraph(g, 5+rng.Intn(5))
		if err != nil {
			return false
		}
		x, err := dtlp.Build(p, dtlp.Config{Xi: 1 + rng.Intn(3)})
		if err != nil {
			return false
		}
		e := NewEngine(x, nil, Options{})
		// Optionally perturb weights.
		if rng.Intn(2) == 1 {
			batch := testutil.PerturbWeights(g, rng, 0.4, 0.5, 0.05)
			if _, err := x.ApplyUpdates(batch); err != nil {
				return false
			}
		}
		for q := 0; q < 3; q++ {
			s := graph.VertexID(rng.Intn(n))
			tt := graph.VertexID(rng.Intn(n))
			if s == tt {
				continue
			}
			k := 1 + rng.Intn(4)
			res, err := e.QueryViewCtx(context.Background(), nil, s, tt, k)
			if err != nil {
				return false
			}
			want := testutil.BruteForceKSP(g.Snapshot(), s, tt, k)
			if len(res.Paths) != len(want) {
				return false
			}
			for i := range want {
				if math.Abs(res.Paths[i].Dist-want[i].Dist) > 1e-9 {
					return false
				}
				if res.Paths[i].Validate(g.Snapshot()) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestResultConverged pins the Converged contract: converged means exact.
// A query that terminates through the Theorem 3 bound (or by exhausting the
// generator) reports Converged, and the same query rerun with an iteration cap
// below its natural iteration count must not: it returns Converged == false
// with at most k simple s-t paths in ascending distance.
func TestResultConverged(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, x, e := buildEngine(t, g, 6, 2)
	const k = 4

	res, err := e.QueryViewCtx(context.Background(), nil, testutil.V1, testutil.V19, k)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Converged {
		t.Fatalf("uncapped query should converge (%d iterations)", res.Iterations)
	}
	if res.Iterations < 2 {
		t.Skipf("query converged in %d iteration(s); cannot exercise the cap", res.Iterations)
	}

	capped := NewEngine(x, nil, Options{MaxIterations: res.Iterations - 1})
	cres, err := capped.QueryViewCtx(context.Background(), nil, testutil.V1, testutil.V19, k)
	if err != nil {
		t.Fatalf("capped Query: %v", err)
	}
	if cres.Converged {
		t.Fatalf("query capped at %d iterations must report Converged == false", res.Iterations-1)
	}
	if len(cres.Paths) > k {
		t.Fatalf("capped query returned %d paths, want at most %d", len(cres.Paths), k)
	}
	for i, p := range cres.Paths {
		if err := p.Validate(g.Snapshot()); err != nil {
			t.Errorf("capped path %d: %v", i, err)
		}
		if p.Source() != testutil.V1 || p.Target() != testutil.V19 {
			t.Errorf("capped path %d runs %d->%d, want %d->%d", i, p.Source(), p.Target(), testutil.V1, testutil.V19)
		}
		if i > 0 && p.Dist < cres.Paths[i-1].Dist-1e-9 {
			t.Errorf("capped paths out of order at %d: %g after %g", i, p.Dist, cres.Paths[i-1].Dist)
		}
	}
	if cres.Iterations != res.Iterations-1 {
		t.Errorf("capped query ran %d iterations, want %d", cres.Iterations, res.Iterations-1)
	}

	// Trivial cases are exact by construction.
	same, err := e.QueryViewCtx(context.Background(), nil, testutil.V5, testutil.V5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !same.Converged {
		t.Error("s == t query should report convergence")
	}
}

// TestStreamTiedImmediate pins the streaming emission epsilon to the one
// Theorem 3 uses: a settled path whose distance ties the next reference
// path's lower bound must stream immediately, not wait for the final flush.
//
// The graph has three tied parallel s-t paths of length 2 plus one longer
// chain, partitioned at z=2 so every vertex is a boundary vertex and the
// skeleton reference paths carry exact distances.  With k=4 the query needs
// several iterations, but after the first one a length-2 path is already in
// hand while the next reference path's bound is also exactly 2 — settled
// only under the tie-inclusive (<= bound + eps) test.  A yield that aborts
// on its first call must therefore abort the query inside iteration 1; an
// emitter that held tied paths back to the flush would run all iterations
// first.
func TestStreamTiedImmediate(t *testing.T) {
	b := graph.NewBuilder(9, false)
	s, tt := graph.VertexID(0), graph.VertexID(1)
	for _, m := range []graph.VertexID{2, 3, 4} {
		b.AddEdge(s, m, 1)
		b.AddEdge(m, tt, 1)
	}
	chain := []graph.VertexID{s, 5, 6, 7, 8, tt}
	for i := 0; i+1 < len(chain); i++ {
		b.AddEdge(chain[i], chain[i+1], 1)
	}
	g := b.Build()
	_, x, eng := buildEngine(t, g, 2, 2)
	iv := x.CurrentView()
	const k = 4
	ctx := context.Background()

	var streamed []graph.Path
	res, err := eng.StreamView(ctx, iv, s, tt, k, func(p graph.Path) error {
		streamed = append(streamed, p)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamView: %v", err)
	}
	if !res.Converged {
		t.Fatal("Converged=false, want an exact result")
	}
	wantDists := []float64{2, 2, 2, 5}
	if len(res.Paths) != len(wantDists) {
		t.Fatalf("got %d paths, want %d: %v", len(res.Paths), len(wantDists), res.Paths)
	}
	for i, d := range wantDists {
		if math.Abs(res.Paths[i].Dist-d) > 1e-9 {
			t.Errorf("path %d dist = %g, want %g", i, res.Paths[i].Dist, d)
		}
	}
	// The stream is exactly Result.Paths, in order: the frozen emitted prefix
	// guarantees tied-distance late arrivals cannot displace streamed paths.
	if len(streamed) != len(res.Paths) {
		t.Fatalf("streamed %d paths, result has %d", len(streamed), len(res.Paths))
	}
	for i := range streamed {
		if !streamed[i].Equal(res.Paths[i]) {
			t.Errorf("streamed path %d = %v, result path = %v", i, streamed[i], res.Paths[i])
		}
	}
	if res.Iterations < 2 {
		t.Fatalf("query converged in %d iterations; the construction no longer separates emission from termination", res.Iterations)
	}

	sentinel := errors.New("stop streaming")
	ares, aerr := eng.StreamView(ctx, iv, s, tt, k, func(graph.Path) error { return sentinel })
	if !errors.Is(aerr, sentinel) {
		t.Fatalf("aborting yield returned %v, want the sentinel", aerr)
	}
	if ares.Iterations != 1 {
		t.Errorf("aborting yield stopped the query after %d of %d iterations; a tied-distance settled path did not stream immediately",
			ares.Iterations, res.Iterations)
	}
}

// TestStreamTiedWeightsRandom hammers the streaming contract on a
// unit-weight random graph, where nearly every pair of path distances ties:
// for every query the yielded sequence must be exactly Result.Paths in
// non-decreasing distance order, and a result with k paths in hand must stay
// exact.
func TestStreamTiedWeightsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 24
	g := testutil.RandomConnected(rng, n, 30)
	unit := make([]graph.WeightUpdate, g.NumEdges())
	for e := range unit {
		unit[e] = graph.WeightUpdate{Edge: graph.EdgeID(e), NewWeight: 1}
	}
	if err := g.ApplyUpdates(unit); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	_, x, eng := buildEngine(t, g, 5, 2)
	iv := x.CurrentView()
	const k = 6
	for trial := 0; trial < 30; trial++ {
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		var streamed []graph.Path
		res, err := eng.StreamView(context.Background(), iv, s, tt, k, func(p graph.Path) error {
			streamed = append(streamed, p)
			return nil
		})
		if err != nil {
			t.Fatalf("StreamView(%d,%d): %v", s, tt, err)
		}
		if !res.Converged && len(res.Paths) >= k {
			t.Errorf("query(%d,%d): not exact with %d paths in hand on a graph the engine solves exactly", s, tt, len(res.Paths))
		}
		if len(streamed) != len(res.Paths) {
			t.Fatalf("query(%d,%d): streamed %d paths, result has %d", s, tt, len(streamed), len(res.Paths))
		}
		for i := range streamed {
			if !streamed[i].Equal(res.Paths[i]) {
				t.Errorf("query(%d,%d): streamed path %d = %v, result path = %v", s, tt, i, streamed[i], res.Paths[i])
			}
			if i > 0 && streamed[i].Dist < streamed[i-1].Dist-1e-9 {
				t.Errorf("query(%d,%d): stream order regressed at %d: %g after %g", s, tt, i, streamed[i].Dist, streamed[i-1].Dist)
			}
		}
	}
}
