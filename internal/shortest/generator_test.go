package shortest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kspdg/internal/graph"
	"kspdg/internal/testutil"
)

func TestGeneratorMatchesYen(t *testing.T) {
	g := testutil.PaperGraph(t)
	want := Yen(g.Snapshot(), testutil.V4, testutil.V13, 6, nil)
	gen := NewGenerator(g.Snapshot(), testutil.V4, testutil.V13, nil)
	for i, w := range want {
		p, ok := gen.Next()
		if !ok {
			t.Fatalf("generator exhausted at %d, want %d paths", i, len(want))
		}
		if !p.Equal(w) || math.Abs(p.Dist-w.Dist) > 1e-9 {
			t.Errorf("path %d: generator %v, Yen %v", i, p, w)
		}
	}
	if len(gen.Produced()) != len(want) {
		t.Errorf("Produced() length %d, want %d", len(gen.Produced()), len(want))
	}
}

func TestGeneratorExhaustion(t *testing.T) {
	g := testutil.LineGraph(t, 4)
	gen := NewGenerator(g.Snapshot(), 0, 3, nil)
	if _, ok := gen.Next(); !ok {
		t.Fatal("expected first path")
	}
	if _, ok := gen.Next(); ok {
		t.Errorf("line graph has only one simple path")
	}
	// Once exhausted, it stays exhausted.
	if _, ok := gen.Next(); ok {
		t.Errorf("exhausted generator returned a path")
	}
}

func TestGeneratorSameSourceTarget(t *testing.T) {
	g := testutil.LineGraph(t, 4)
	gen := NewGenerator(g.Snapshot(), 2, 2, nil)
	p, ok := gen.Next()
	if !ok || p.Len() != 0 {
		t.Errorf("expected trivial path, got %v,%v", p, ok)
	}
	if _, ok := gen.Next(); ok {
		t.Errorf("only one trivial path expected")
	}
}

func TestGeneratorUnreachable(t *testing.T) {
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	gen := NewGenerator(g.Snapshot(), 0, 3, nil)
	if _, ok := gen.Next(); ok {
		t.Errorf("expected no path")
	}
}

// Property: the generator yields exactly the same sequence as Yen on random
// graphs.
func TestPropertyGeneratorEquivalentToYen(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(15)
		g := testutil.RandomConnected(rng, n, n/2)
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		k := 1 + rng.Intn(6)
		want := Yen(g.Snapshot(), s, tt, k, nil)
		gen := NewGenerator(g.Snapshot(), s, tt, nil)
		for i := 0; i < len(want); i++ {
			p, ok := gen.Next()
			if !ok || math.Abs(p.Dist-want[i].Dist) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
