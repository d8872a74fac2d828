package graph

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// buildPaperGraph constructs the 19-vertex example graph G from Figure 3 of
// the paper (vertices renumbered 0..18 for v1..v19).
func buildPaperGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(19, false)
	edges := []struct {
		u, v VertexID
		w    float64
	}{
		{0, 1, 3}, {0, 3, 3}, {1, 2, 6}, {1, 4, 3}, {2, 5, 2}, {3, 4, 4},
		{4, 5, 4}, {3, 6, 3}, {5, 8, 4}, {6, 7, 3}, {7, 8, 5}, {8, 9, 6},
		{8, 13, 7}, {9, 10, 5}, {10, 11, 3}, {11, 12, 3}, {12, 13, 5},
		{10, 13, 6}, {12, 15, 5}, {12, 17, 3}, {13, 15, 3}, {15, 16, 2},
		{16, 17, 2}, {17, 18, 3},
	}
	for _, e := range edges {
		if _, err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", e.u, e.v, err)
		}
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := buildPaperGraph(t)
	if got, want := g.NumVertices(), 19; got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 24; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if g.Directed() {
		t.Errorf("graph should be undirected")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(3, false)
	if _, err := b.AddEdge(0, 3, 1); err == nil {
		t.Errorf("expected error for out-of-range vertex")
	}
	if _, err := b.AddEdge(-1, 1, 1); err == nil {
		t.Errorf("expected error for negative vertex")
	}
	if _, err := b.AddEdge(1, 1, 1); err == nil {
		t.Errorf("expected error for self-loop")
	}
	if _, err := b.AddEdge(0, 1, -2); err == nil {
		t.Errorf("expected error for negative weight")
	}
}

func TestUndirectedAdjacencySymmetric(t *testing.T) {
	g := buildPaperGraph(t)
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		for _, a := range g.Neighbors(v) {
			found := false
			for _, back := range g.Neighbors(a.To) {
				if back.To == v && back.Edge == a.Edge {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("arc %d->%d (edge %d) has no reverse entry", v, a.To, a.Edge)
			}
		}
	}
}

func TestDirectedAdjacencyOneWay(t *testing.T) {
	b := NewBuilder(3, true)
	e01, _ := b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	g := b.Build()
	if !g.Directed() {
		t.Fatal("graph should be directed")
	}
	if got := len(g.Neighbors(1)); got != 1 {
		t.Errorf("vertex 1 should have 1 outgoing arc, got %d", got)
	}
	if got := len(g.Neighbors(2)); got != 0 {
		t.Errorf("vertex 2 should have 0 outgoing arcs, got %d", got)
	}
	if _, ok := g.EdgeBetween(1, 0); ok {
		t.Errorf("reverse edge should not exist in directed graph")
	}
	if e, ok := g.EdgeBetween(0, 1); !ok || e != e01 {
		t.Errorf("EdgeBetween(0,1) = %d,%v; want %d,true", e, ok, e01)
	}
}

// TestGraphIsNotAWeightedView pins "no live reads": a search must name a
// Snapshot, so the Graph itself must not satisfy the read interface.
func TestGraphIsNotAWeightedView(t *testing.T) {
	if _, ok := any(buildPaperGraph(t)).(WeightedView); ok {
		t.Fatal("*Graph implements WeightedView; searches could read live weights")
	}
}

func TestApplyUpdatesPublishesSnapshot(t *testing.T) {
	g := buildPaperGraph(t)
	e, ok := g.EdgeBetween(0, 1)
	if !ok {
		t.Fatal("edge (0,1) missing")
	}
	s0 := g.Snapshot()
	if got := s0.Weight(e); got != 3 {
		t.Fatalf("initial weight = %g, want 3", got)
	}
	if g.Snapshot() != s0 {
		t.Fatal("Snapshot must return the same pointer until the next batch")
	}
	if err := g.ApplyUpdates([]WeightUpdate{{Edge: e, NewWeight: 5}}); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	s1 := g.Snapshot()
	if s1 == s0 {
		t.Fatal("a batch must publish a new snapshot")
	}
	if got := s1.Weight(e); got != 5 {
		t.Errorf("weight after update = %g, want 5", got)
	}
	if got := g.InitialWeight(e); got != 3 {
		t.Errorf("initial weight must not change, got %g", got)
	}
	if got := s0.Weight(e); got != 3 {
		t.Errorf("the batch wrote the first snapshot in place: weight %g, want 3", got)
	}
	if err := g.ApplyUpdates(nil); err != nil || g.Snapshot() != s1 {
		t.Errorf("an empty batch must publish nothing (err %v)", err)
	}
	if err := g.ApplyUpdates([]WeightUpdate{{Edge: e, NewWeight: -1}}); err == nil {
		t.Errorf("expected error for negative weight")
	}
	if err := g.ApplyUpdates([]WeightUpdate{{Edge: 9999, NewWeight: 1}}); err == nil {
		t.Errorf("expected error for out-of-range edge")
	}
	if g.Snapshot() != s1 {
		t.Errorf("a rejected batch must publish nothing")
	}
}

func TestApplyUpdatesAtomic(t *testing.T) {
	g := buildPaperGraph(t)
	batch := []WeightUpdate{{Edge: 0, NewWeight: 10}, {Edge: 1, NewWeight: 11}, {Edge: 2, NewWeight: 12}}
	s0 := g.Snapshot()
	if err := g.ApplyUpdates(batch); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	s1 := g.Snapshot()
	if s1 == s0 {
		t.Errorf("batch should publish a new snapshot")
	}
	for _, u := range batch {
		if got := s1.Weight(u.Edge); got != u.NewWeight {
			t.Errorf("edge %d weight = %g, want %g", u.Edge, got, u.NewWeight)
		}
	}
	// Invalid batches are rejected wholesale.
	if err := g.ApplyUpdates([]WeightUpdate{{Edge: 0, NewWeight: 1}, {Edge: 9999, NewWeight: 1}}); err == nil {
		t.Errorf("expected error for invalid batch")
	}
	if g.Snapshot() != s1 {
		t.Errorf("rejected batch must not publish a snapshot")
	}
	if got := g.Snapshot().Weight(0); got != 10 {
		t.Errorf("rejected batch must not be partially applied; edge 0 weight = %g, want 10", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	g := buildPaperGraph(t)
	e, _ := g.EdgeBetween(0, 1)
	snap := g.Snapshot()
	if err := g.ApplyUpdates([]WeightUpdate{{Edge: e, NewWeight: 100}}); err != nil {
		t.Fatal(err)
	}
	if got := snap.Weight(e); got != 3 {
		t.Errorf("snapshot weight = %g, want 3 (isolated from later updates)", got)
	}
	snap2 := g.Snapshot()
	if got := snap2.Weight(e); got != 100 {
		t.Errorf("new snapshot weight = %g, want 100", got)
	}
	if snap2 == snap {
		t.Errorf("later snapshot should be a different snapshot")
	}
	if snap.NumVertices() != g.NumVertices() || snap.NumEdges() != g.NumEdges() {
		t.Errorf("snapshot topology should match graph")
	}
}

// TestConcurrentUpdatesAndSnapshots races writers, each batch setting every
// edge to one value, against readers that check every snapshot they load
// holds a single value: a torn publication would mix two batches.
func TestConcurrentUpdatesAndSnapshots(t *testing.T) {
	g := buildPaperGraph(t)
	// Readers may load the snapshot before any writer's: make it hold a
	// single value too, as the paper graph's own weights differ by edge.
	uniform := make([]WeightUpdate, g.NumEdges())
	for e := range uniform {
		uniform[e] = WeightUpdate{Edge: EdgeID(e), NewWeight: 1}
	}
	if err := g.ApplyUpdates(uniform); err != nil {
		t.Fatal(err)
	}
	const workers, batches = 8, 2000
	var wg sync.WaitGroup
	var published atomic.Int64
	stop, enough := make(chan struct{}), make(chan struct{})
	var once sync.Once
	race := func() { once.Do(func() { close(enough) }) }
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer race() // a goroutine that gives up must not leave the test waiting
			rng := rand.New(rand.NewSource(seed))
			batch := make([]WeightUpdate, g.NumEdges())
			for {
				select {
				case <-stop:
					return
				default:
				}
				if seed%2 == 0 {
					w := 1 + rng.Float64()*10
					for e := range batch {
						batch[e] = WeightUpdate{Edge: EdgeID(e), NewWeight: w}
					}
					if err := g.ApplyUpdates(batch); err != nil {
						t.Error(err)
						return
					}
					if published.Add(1) == batches {
						race()
					}
					continue
				}
				s := g.Snapshot()
				for e := EdgeID(1); int(e) < s.NumEdges(); e++ {
					if s.Weight(e) != s.Weight(0) {
						t.Errorf("snapshot mixes batches: edge %d weight %g, edge 0 weight %g", e, s.Weight(e), s.Weight(0))
						return
					}
				}
			}
		}(int64(i))
	}
	// Race until the writers have published enough batches.
	<-enough
	close(stop)
	wg.Wait()
}

func TestEdgesAccessor(t *testing.T) {
	g := buildPaperGraph(t)
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges() returned %d, want %d", len(edges), g.NumEdges())
	}
	if edges[0].U != 0 || edges[0].V != 1 || edges[0].Weight != 3 {
		t.Errorf("edge 0 = %+v, want {0 1 3}", edges[0])
	}
}

func TestSortedArcs(t *testing.T) {
	g := buildPaperGraph(t)
	arcs := SortedArcs(g.Snapshot(), 8)
	for i := 1; i < len(arcs); i++ {
		if arcs[i-1].To > arcs[i].To {
			t.Errorf("SortedArcs not sorted: %v", arcs)
		}
	}
}

// Property: after any batch of valid updates, an edge's weight is the last
// value the batch wrote for it and InitialWeight(e) never changes.
func TestPropertyWeightLastWriteWins(t *testing.T) {
	g := buildPaperGraph(t)
	f := func(raw []uint16) bool {
		last := make(map[EdgeID]float64)
		var batch []WeightUpdate
		for _, r := range raw {
			e := EdgeID(int(r) % g.NumEdges())
			w := float64(r%1000) + 1
			batch = append(batch, WeightUpdate{Edge: e, NewWeight: w})
			last[e] = w
		}
		if err := g.ApplyUpdates(batch); err != nil {
			return false
		}
		for e, w := range last {
			if g.Snapshot().Weight(e) != w {
				return false
			}
		}
		for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
			if g.InitialWeight(e) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
