package graph

import "testing"

func pathsOf(dists ...float64) []Path {
	out := make([]Path, len(dists))
	for i, d := range dists {
		out[i] = Path{Vertices: []VertexID{0, VertexID(i + 1)}, Dist: d}
	}
	return out
}

// TestSnapshotCacheRules pins when the snapshot cache answers: at the k it
// was filled at or below, at any k once the list is complete, and never
// across snapshots.
func TestSnapshotCacheRules(t *testing.T) {
	g := buildPaperGraph(t)
	s := g.Snapshot()
	if _, ok := s.CachedPaths(1, 2, 3); ok {
		t.Fatal("empty cache answered")
	}

	s.CachePaths(1, 2, 3, pathsOf(1, 2, 3))
	if got, ok := s.CachedPaths(1, 2, 2); !ok || len(got) != 2 || got[1].Dist != 2 {
		t.Fatalf("k=2 after k=3: %v, %v", got, ok)
	}
	if _, ok := s.CachedPaths(1, 2, 4); ok {
		t.Fatal("a full list answered a larger k")
	}
	if _, ok := s.CachedPaths(2, 1, 1); ok {
		t.Fatal("the reverse pair answered")
	}
	if got, ok := g.Snapshot().CachedPaths(1, 2, 2); !ok || len(got) != 2 {
		t.Fatalf("the same snapshot, loaded again, did not answer: %v, %v", got, ok)
	}
	if err := g.ApplyUpdates([]WeightUpdate{{Edge: 0, NewWeight: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Snapshot().CachedPaths(1, 2, 1); ok {
		t.Fatal("another snapshot answered")
	}

	// A smaller k does not replace the entry; a larger one does.
	s.CachePaths(1, 2, 1, pathsOf(1))
	if got, _ := s.CachedPaths(1, 2, 3); len(got) != 3 {
		t.Fatalf("a smaller k replaced the entry: %v", got)
	}
	s.CachePaths(1, 2, 8, pathsOf(1, 2, 3, 4, 5))
	if got, ok := s.CachedPaths(1, 2, 20); !ok || len(got) != 5 {
		t.Fatalf("a complete list (5 paths at k=8) must answer any k: %v, %v", got, ok)
	}

	// Callers own the slice they get: reordering it leaves the cache alone.
	got, _ := s.CachedPaths(1, 2, 5)
	got[0], got[4] = got[4], got[0]
	if again, _ := s.CachedPaths(1, 2, 5); again[0].Dist != 1 {
		t.Fatalf("a caller's swap reached the cache: %v", again)
	}
	// So is the slice a caller hands in.
	mine := pathsOf(7)
	s.CachePaths(3, 4, 2, mine)
	mine[0].Dist = 99
	if again, _ := s.CachedPaths(3, 4, 2); again[0].Dist != 7 {
		t.Fatalf("a caller's write reached the cache: %v", again)
	}
}

// TestSnapshotCacheCap pins the per-snapshot cap: new pairs stop entering,
// held ones still grow.
func TestSnapshotCacheCap(t *testing.T) {
	s := buildPaperGraph(t).Snapshot()
	for i := 0; i < snapshotCacheCap; i++ {
		s.CachePaths(VertexID(i), 0, 2, pathsOf(1, 2))
	}
	s.CachePaths(-1, 0, 2, pathsOf(1, 2))
	if _, ok := s.CachedPaths(-1, 0, 2); ok {
		t.Fatal("a pair entered a full cache")
	}
	s.CachePaths(0, 0, 4, pathsOf(1, 2, 3, 4))
	if got, ok := s.CachedPaths(0, 0, 4); !ok || len(got) != 4 {
		t.Fatalf("a held pair did not grow in a full cache: %v, %v", got, ok)
	}
	if n := len(s.cache); n != snapshotCacheCap {
		t.Fatalf("%d entries, cap %d", n, snapshotCacheCap)
	}
}
