package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
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

// TestWorkerParallelMatchesSequential requires the parallel executor to
// produce byte-identical responses to the sequential path at every width.
func TestWorkerParallelMatchesSequential(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]partition.SubgraphID, p.NumSubgraphs())
	for i := range all {
		all[i] = partition.SubgraphID(i)
	}
	// Every co-located boundary pair, plus one trivial same-vertex pair:
	// pairs sharing several subgraphs exercise the dedup merge.
	boundary := p.BoundaryVertices()
	var pairs []core.PairRequest
	for i, a := range boundary {
		for _, b := range boundary[i+1:] {
			if len(commonSubgraphs(p, a, b)) > 0 {
				pairs = append(pairs, core.PairRequest{A: a, B: b})
			}
		}
	}
	if len(pairs) < 2 {
		t.Skip("need at least two co-located boundary pairs")
	}
	pairs = append(pairs, core.PairRequest{A: boundary[0], B: boundary[0]})

	epoch := x.CurrentView().Epoch()
	reqs := []PartialKSPRequest{
		{Pairs: pairs, K: 3},
		{Pairs: pairs, K: 3, Epoch: epoch, HasEpoch: true},
		{Pairs: pairs[:1], K: 3}, // fewer pairs than lanes
	}
	w := NewWorker(0, p, all)
	w.SetViewResolver(x.ViewAt)
	handleAll := func(t *testing.T, par int) []PartialKSPResponse {
		testutil.SetGOMAXPROCS(t, par)
		out := make([]PartialKSPResponse, len(reqs))
		for i, req := range reqs {
			out[i] = w.HandlePartialKSP(req)
		}
		return out
	}
	var want []PartialKSPResponse
	t.Run("par=1", func(t *testing.T) { want = handleAll(t, 1) })
	for _, par := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			for i, got := range handleAll(t, par) {
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("diverges on %d pairs (k=%d, pinned=%v):\n got %+v\nwant %+v",
						len(reqs[i].Pairs), reqs[i].K, reqs[i].HasEpoch, got.Flat, want[i].Flat)
				}
			}
		})
	}
}

// TestLocalProviderParallelMatchesSequential mirrors the worker check for the
// single-process provider.
func TestLocalProviderParallelMatchesSequential(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	boundary := p.BoundaryVertices()
	var pairs []core.PairRequest
	for i, a := range boundary {
		for _, b := range boundary[i+1:] {
			if len(commonSubgraphs(p, a, b)) > 0 {
				pairs = append(pairs, core.PairRequest{A: a, B: b})
			}
		}
	}
	if len(pairs) == 0 {
		t.Skip("no co-located boundary pairs")
	}
	want, err := refine(core.NewLocalProvider(p, 1), nil, pairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		for _, sub := range [][]core.PairRequest{pairs, pairs[:1]} {
			got, err := refine(core.NewLocalProvider(p, par), nil, sub, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i, pr := range sub { // sub is a prefix of pairs
				if !pathsEqual(got[i], want[i]) {
					t.Fatalf("parallelism %d diverges for pair %v:\n got %v\nwant %v", par, pr, got[i], want[i])
				}
			}
		}
	}
}

func pathsEqual(a, b []graph.Path) bool {
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
