package dtlp

import (
	"math/rand"
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
)

// FuzzMakePairKey checks the PairKey normalisation invariants for arbitrary
// vertex pairs: directed keys preserve the pair as given, undirected keys are
// canonical (A <= B), order-insensitive, and never lose an endpoint.
func FuzzMakePairKey(f *testing.F) {
	f.Add(int32(0), int32(0), false)
	f.Add(int32(1), int32(2), false)
	f.Add(int32(2), int32(1), false)
	f.Add(int32(1), int32(2), true)
	f.Add(int32(2), int32(1), true)
	f.Add(int32(-1), int32(5), false)
	f.Add(int32(1<<30), int32(-(1 << 30)), true)
	f.Fuzz(func(t *testing.T, a, b int32, directed bool) {
		va, vb := graph.VertexID(a), graph.VertexID(b)
		key := MakePairKey(va, vb, directed)
		if directed {
			if key.A != va || key.B != vb {
				t.Fatalf("directed key must preserve order: MakePairKey(%d,%d,true) = %+v", va, vb, key)
			}
			return
		}
		if key.A > key.B {
			t.Fatalf("undirected key not normalised: MakePairKey(%d,%d,false) = %+v", va, vb, key)
		}
		if !(key.A == va && key.B == vb) && !(key.A == vb && key.B == va) {
			t.Fatalf("key lost an endpoint: MakePairKey(%d,%d,false) = %+v", va, vb, key)
		}
		if swapped := MakePairKey(vb, va, false); swapped != key {
			t.Fatalf("undirected key order-sensitive: (%d,%d) -> %+v but (%d,%d) -> %+v",
				va, vb, key, vb, va, swapped)
		}
	})
}

// FuzzBoundingPathsAreTheirEdges builds the index of a small random
// multigraph, directed or not, from a seed: a spanning tree (both ways when
// directed) plus random edges, parallel ones among them, with integer
// initial weights and some current weights moved off them.  Every bounding
// path must be the walk its edges take from its pair's A (see
// checkPathsAreTheirEdges), and an export and import must give back the same
// records and Stats.
func FuzzBoundingPathsAreTheirEdges(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		directed := rng.Intn(2) == 0
		n := 4 + rng.Intn(17)
		b := graph.NewBuilder(n, directed)
		var ends [][2]int
		add := func(u, v int) {
			if _, err := b.AddEdge(graph.VertexID(u), graph.VertexID(v), float64(1+rng.Intn(9))); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, [2]int{u, v})
		}
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			u, v := perm[i], perm[rng.Intn(i)]
			add(u, v)
			if directed {
				add(v, u)
			}
		}
		for range rng.Intn(2 * n) {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				add(u, v)
			}
		}
		for range rng.Intn(n) { // a parallel edge to an existing one
			e := ends[rng.Intn(len(ends))]
			add(e[0], e[1])
		}
		g := b.Build()
		var ups []graph.WeightUpdate
		for e := range graph.EdgeID(g.NumEdges()) {
			if rng.Intn(3) == 0 {
				ups = append(ups, graph.WeightUpdate{Edge: e, NewWeight: g.InitialWeight(e) * (0.5 + rng.Float64())})
			}
		}
		if err := g.ApplyUpdates(ups); err != nil {
			t.Fatal(err)
		}
		part, err := partition.PartitionGraph(g, 2+rng.Intn(6))
		if err != nil {
			t.Fatal(err)
		}
		x, err := Build(part, Config{Xi: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		checkPathsAreTheirEdges(t, x)
		checkRoundTrip(t, x)
	})
}
