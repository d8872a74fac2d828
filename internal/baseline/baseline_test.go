package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kspdg/internal/graph"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
)

func TestYenBaselineMatchesOracle(t *testing.T) {
	g := testutil.PaperGraph(t)
	alg := NewYen(g)
	if alg.Name() != "Yen" {
		t.Errorf("name = %q", alg.Name())
	}
	got, err := alg.Query(testutil.V4, testutil.V13, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := testutil.BruteForceKSP(g.Snapshot(), testutil.V4, testutil.V13, 3)
	if len(got) != len(want) {
		t.Fatalf("got %d paths, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Errorf("path %d dist = %g, want %g", i, got[i].Dist, want[i].Dist)
		}
	}
	if err := alg.ApplyUpdates(nil); err != nil {
		t.Errorf("ApplyUpdates: %v", err)
	}
}

func TestFindKSPMatchesYen(t *testing.T) {
	g := testutil.PaperGraph(t)
	alg := NewFindKSP(g)
	if alg.Name() != "FindKSP" {
		t.Errorf("name = %q", alg.Name())
	}
	cases := []struct {
		s, t graph.VertexID
		k    int
	}{
		{testutil.V4, testutil.V13, 4}, {testutil.V1, testutil.V19, 5}, {testutil.V3, testutil.V14, 3},
	}
	for _, c := range cases {
		got, err := alg.Query(c.s, c.t, c.k)
		if err != nil {
			t.Fatal(err)
		}
		want := shortest.Yen(g.Snapshot(), c.s, c.t, c.k, nil)
		if len(got) != len(want) {
			t.Fatalf("FindKSP(%d,%d,%d) returned %d paths, Yen %d", c.s, c.t, c.k, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Errorf("FindKSP(%d,%d,%d) path %d dist %g, Yen %g", c.s, c.t, c.k, i, got[i].Dist, want[i].Dist)
			}
			if !got[i].IsSimple() || got[i].Validate(g.Snapshot()) != nil {
				t.Errorf("FindKSP produced invalid path %v", got[i])
			}
		}
	}
}

func TestFindKSPEdgeCases(t *testing.T) {
	g := testutil.LineGraph(t, 5)
	alg := NewFindKSP(g)
	if got, _ := alg.Query(2, 2, 3); len(got) != 1 || got[0].Len() != 0 {
		t.Errorf("s==t should return trivial path, got %v", got)
	}
	if got, _ := alg.Query(0, 4, 0); got != nil {
		t.Errorf("k=0 should return nil")
	}
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	dg := b.Build()
	if got, _ := NewFindKSP(dg).Query(0, 3, 2); got != nil {
		t.Errorf("disconnected should return nil, got %v", got)
	}
}

func TestFindKSPDirected(t *testing.T) {
	b := graph.NewBuilder(10, true)
	for i := 0; i < 10; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%10), 1+float64(i%3))
	}
	b.AddEdge(0, 5, 2)
	b.AddEdge(2, 8, 4)
	g := b.Build()
	got, err := NewFindKSP(g).Query(0, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := shortest.Yen(g.Snapshot(), 0, 6, 3, nil)
	if len(got) != len(want) {
		t.Fatalf("directed FindKSP returned %d, Yen %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Errorf("directed path %d dist %g, want %g", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestCANDSMatchesDijkstra(t *testing.T) {
	g := testutil.PaperGraph(t)
	c, err := NewCANDS(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "CANDS" {
		t.Errorf("name = %q", c.Name())
	}
	if c.IndexedPairs() == 0 {
		t.Errorf("expected indexed boundary pairs")
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		s := graph.VertexID(rng.Intn(g.NumVertices()))
		tt := graph.VertexID(rng.Intn(g.NumVertices()))
		got, err := c.Query(s, tt, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantDist := shortest.ShortestDistance(g.Snapshot(), s, tt, nil)
		if s == tt {
			if len(got) != 1 || got[0].Len() != 0 {
				t.Errorf("s==t result wrong: %v", got)
			}
			continue
		}
		if math.IsInf(wantDist, 1) {
			if len(got) != 0 {
				t.Errorf("expected no path for unreachable pair")
			}
			continue
		}
		if len(got) != 1 {
			t.Fatalf("CANDS(%d,%d) returned %d paths, want 1", s, tt, len(got))
		}
		if math.Abs(got[0].Dist-wantDist) > 1e-9 {
			t.Errorf("CANDS(%d,%d) dist = %g, Dijkstra %g", s, tt, got[0].Dist, wantDist)
		}
		if math.Abs(got[0].EvalDist(g.Snapshot())-got[0].Dist) > 1e-9 {
			t.Errorf("CANDS path distance inconsistent with its edges")
		}
	}
}

func TestCANDSMaintenance(t *testing.T) {
	g := testutil.PaperGraph(t)
	c, err := NewCANDS(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	before := c.RecomputedPairs
	rng := rand.New(rand.NewSource(11))
	batch := testutil.PerturbWeights(g, rng, 0.5, 0.5, 0.1)
	if err := g.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	if c.RecomputedPairs <= before {
		t.Errorf("maintenance should recompute boundary pairs")
	}
	// Queries remain exact after maintenance.
	s, tt := graph.VertexID(0), graph.VertexID(g.NumVertices()-1)
	got, err := c.Query(s, tt, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantDist := shortest.ShortestDistance(g.Snapshot(), s, tt, nil)
	if len(got) != 1 || math.Abs(got[0].Dist-wantDist) > 1e-9 {
		t.Errorf("after maintenance: dist = %v, want %g", got, wantDist)
	}
	if err := c.ApplyUpdates(nil); err != nil {
		t.Errorf("empty batch should be fine: %v", err)
	}
}

func TestCANDSRejectsDirected(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	if _, err := NewCANDS(g, 2); err == nil {
		t.Errorf("directed graph should be rejected")
	}
}

func TestCANDSQueryEdgeCases(t *testing.T) {
	g := testutil.PaperGraph(t)
	c, err := NewCANDS(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Query(0, 5, 0); got != nil {
		t.Errorf("k=0 should return nil")
	}
	// k>1 still returns the single shortest path.
	got, _ := c.Query(testutil.V1, testutil.V19, 5)
	if len(got) != 1 {
		t.Errorf("CANDS should return exactly one path, got %d", len(got))
	}
}

func TestSortPathsByDistHelper(t *testing.T) {
	ps := []graph.Path{{Dist: 3}, {Dist: 1}, {Dist: 2}}
	sortPathsByDist(ps)
	if ps[0].Dist != 1 || ps[2].Dist != 3 {
		t.Errorf("sort failed: %v", ps)
	}
}

// Property: FindKSP equals Yen on random graphs.
func TestPropertyFindKSPEqualsYen(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(15)
		g := testutil.RandomConnected(rng, n, n/2)
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			return true
		}
		k := 1 + rng.Intn(5)
		got, err := NewFindKSP(g).Query(s, tt, k)
		if err != nil {
			return false
		}
		want := shortest.Yen(g.Snapshot(), s, tt, k, nil)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: CANDS matches Dijkstra on random graphs, also after maintenance.
func TestPropertyCANDSEqualsDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(25)
		g := testutil.RandomConnected(rng, n, n/2)
		c, err := NewCANDS(g, 5+rng.Intn(6))
		if err != nil {
			return false
		}
		if rng.Intn(2) == 1 {
			batch := testutil.PerturbWeights(g, rng, 0.5, 0.5, 0.05)
			if err := g.ApplyUpdates(batch); err != nil {
				return false
			}
			if err := c.ApplyUpdates(batch); err != nil {
				return false
			}
		}
		for q := 0; q < 4; q++ {
			s := graph.VertexID(rng.Intn(n))
			tt := graph.VertexID(rng.Intn(n))
			if s == tt {
				continue
			}
			got, err := c.Query(s, tt, 1)
			if err != nil {
				return false
			}
			want := shortest.ShortestDistance(g.Snapshot(), s, tt, nil)
			if math.IsInf(want, 1) {
				if len(got) != 0 {
					return false
				}
				continue
			}
			if len(got) != 1 || math.Abs(got[0].Dist-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
