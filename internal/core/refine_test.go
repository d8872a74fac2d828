package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/testutil"
)

// commonSubgraphs returns the ids of the subgraphs holding both a and b.
func commonSubgraphs(p *partition.Partition, a, b graph.VertexID) []partition.SubgraphID {
	var out []partition.SubgraphID
	for _, id := range p.SubgraphsOf(a) {
		if slices.Contains(p.SubgraphsOf(b), id) {
			out = append(out, id)
		}
	}
	return out
}

// colocatedPairs returns every boundary pair of p that shares a subgraph.
func colocatedPairs(p *partition.Partition) []PairRequest {
	boundary := p.BoundaryVertices()
	var pairs []PairRequest
	for i, a := range boundary {
		for _, b := range boundary[i+1:] {
			if len(commonSubgraphs(p, a, b)) > 0 {
				pairs = append(pairs, PairRequest{A: a, B: b})
			}
		}
	}
	return pairs
}

func samePaths(a, b []graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dist != b[i].Dist || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestRefinePair(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	pairs := colocatedPairs(p)
	if len(pairs) == 0 {
		t.Skip("no co-located boundary pair")
	}
	part, weights := RefineSource(p, nil)
	a, b := pairs[0].A, pairs[0].B
	paths := RefinePair(part, pairs[0], 3, weights, nil)
	if len(paths) == 0 {
		t.Fatal("expected partial paths")
	}
	for i, path := range paths {
		if path.Source() != a || path.Target() != b {
			t.Errorf("partial path %d endpoints wrong: %v", i, path)
		}
		if err := path.Validate(g.Snapshot()); err != nil {
			t.Errorf("partial path %d invalid: %v", i, err)
		}
		if i > 0 && paths[i-1].Dist > path.Dist+1e-9 {
			t.Errorf("partial paths not sorted")
		}
	}
	// Same-vertex pair yields the trivial path.
	trivial := RefinePair(part, PairRequest{A: a, B: a}, 2, weights, nil)
	if len(trivial) != 1 || trivial[0].Len() != 0 {
		t.Errorf("same-vertex pair should return trivial path, got %v", trivial)
	}
	// k comes off the wire on a worker: non-positive values answer empty.
	for _, k := range []int{0, -1} {
		if got := RefinePair(part, pairs[0], k, weights, nil); len(got) != 0 {
			t.Errorf("k=%d returned %v, want nothing", k, got)
		}
	}
}

// TestRefinePairAllocs pins the garbage of refining a pair the snapshot
// cache already holds, in one subgraph the caller owns: the one allocation is
// the cache's copy of the answer, which the caller keeps.  Finding the pair's
// common owned subgraphs allocates nothing.
func TestRefinePairAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p, err := partition.PartitionGraph(testutil.PaperGraph(t), 6)
	if err != nil {
		t.Fatal(err)
	}
	part, weights := RefineSource(p, nil)
	owns := func(partition.SubgraphID) bool { return true }
	for _, pr := range colocatedPairs(p) {
		if len(commonSubgraphs(p, pr.A, pr.B)) != 1 {
			continue
		}
		RefinePair(part, pr, 3, weights, owns) // fills the cache
		if got := testing.AllocsPerRun(100, func() { RefinePair(part, pr, 3, weights, owns) }); got != 1 {
			t.Fatalf("pair %v: %v allocations per cached refine, want 1", pr, got)
		}
		return
	}
	t.Fatal("no pair lies in exactly one subgraph")
}

// TestRefinePairOwnershipSplit pins the invariant master-side merging relies
// on: however the subgraphs are split between owners, merging the owners'
// answers through MergePaths gives exactly the answer of one owner of
// everything.
func TestRefinePairOwnershipSplit(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	pairs := colocatedPairs(p)
	if len(pairs) == 0 {
		t.Skip("no co-located boundary pair")
	}
	part, weights := RefineSource(p, nil)
	splits := []struct {
		name   string
		owners int
		owner  func(partition.SubgraphID) int
	}{
		{"round-robin-2", 2, func(id partition.SubgraphID) int { return int(id) % 2 }},
		{"round-robin-3", 3, func(id partition.SubgraphID) int { return int(id) % 3 }},
		{"halves", 2, func(id partition.SubgraphID) int {
			if int(id) < p.NumSubgraphs()/2 {
				return 0
			}
			return 1
		}},
		{"one-owner-idle", 2, func(partition.SubgraphID) int { return 0 }},
	}
	multi := 0
	for _, split := range splits {
		for _, k := range []int{1, 3} {
			for _, pr := range pairs {
				if len(commonSubgraphs(p, pr.A, pr.B)) > 1 {
					multi++
				}
				want := RefinePair(part, pr, k, weights, nil)
				var union []graph.Path
				for o := 0; o < split.owners; o++ {
					owns := func(id partition.SubgraphID) bool { return split.owner(id) == o }
					union = append(union, RefinePair(part, pr, k, weights, owns)...)
				}
				if got := MergePaths(union, k); !samePaths(got, want) {
					t.Fatalf("%s k=%d pair %v:\n got %v\nwant %v", split.name, k, pr, got, want)
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no pair shares more than one subgraph: the split was never exercised")
	}
}

func TestMergePaths(t *testing.T) {
	path := func(d float64, vs ...graph.VertexID) graph.Path { return graph.Path{Vertices: vs, Dist: d} }
	in := []graph.Path{path(3, 1, 4, 2), path(1, 1, 2), path(2, 1, 3, 2), path(1, 1, 2), path(2, 1, 3, 2)}
	got := MergePaths(append([]graph.Path(nil), in...), 2)
	if want := []graph.Path{path(1, 1, 2), path(2, 1, 3, 2)}; !samePaths(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := MergePaths(append([]graph.Path(nil), in...), 10); len(got) != 3 {
		t.Fatalf("dedup kept %d paths, want 3", len(got))
	}
	if got := MergePaths(append([]graph.Path(nil), in...), 0); len(got) != 0 {
		t.Fatalf("k=0 kept %v", got)
	}
	if got := MergePaths(nil, 3); len(got) != 0 {
		t.Fatalf("empty input gave %v", got)
	}
}

func TestLocalProviderValidation(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	lp := NewLocalProvider(p, 0)
	if reply := <-lp.PartialKSPAsyncCtx(context.Background(), nil, []PairRequest{{A: 0, B: 1}}, 0); reply.Err == nil {
		t.Errorf("k=0 should be rejected")
	}
	reply := <-lp.PartialKSPAsyncCtx(context.Background(), nil, nil, 2)
	if reply.Err != nil || len(reply.Paths) != 0 {
		t.Errorf("empty request should return empty map, got %v, %v", reply.Paths, reply.Err)
	}
	// A provider without a partition stands in for a bug in a search: the
	// panic must fail that request alone — raised on the answering goroutine
	// (serial) or re-raised from a fan-out lane — and leave the provider
	// answering requests that do not hit it.
	for _, width := range []int{0, 4} {
		broken := NewLocalProvider(nil, width)
		pairs := []PairRequest{{A: 3, B: 3}, {A: 0, B: 1}, {A: 1, B: 2}}
		if reply := <-broken.PartialKSPAsyncCtx(context.Background(), nil, pairs, 2); reply.Err == nil || !strings.Contains(reply.Err.Error(), "panic") {
			t.Errorf("width %d: panicking search replied %v, want a panic error", width, reply.Err)
		}
		if reply := <-broken.PartialKSPAsyncCtx(context.Background(), nil, pairs[:1], 2); reply.Err != nil || len(reply.Paths) != 1 {
			t.Errorf("width %d: provider did not survive the panic: %v, %v", width, reply.Paths, reply.Err)
		}
	}
}
