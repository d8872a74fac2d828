package cluster

import (
	"context"
	"slices"
	"testing"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/testutil"
)

func paperPartition(t testing.TB) *partition.Partition {
	t.Helper()
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The TestOwners* tests pin the placement rule the provider routes by, one
// (workers, factor) case each.
func TestOwnersSingleCopy(t *testing.T)            { checkOwners(t, 2, 1, 1) }
func TestOwnersFactorTwo(t *testing.T)             { checkOwners(t, 3, 2, 2) }
func TestOwnersFactorCappedAtWorkers(t *testing.T) { checkOwners(t, 2, 5, 2) }
func TestOwnersFactorZeroMeansOne(t *testing.T)    { checkOwners(t, 4, 0, 1) }

// checkOwners checks that every subgraph has do distinct owners, rank 0
// first, and that OwnedBy is the inverse of Owners; and that a standalone
// worker's ownership after a topology batch that opens a subgraph equals
// Owners for every subgraph, old and new.
func checkOwners(t *testing.T, workers, factor, do int) {
	t.Helper()
	p := paperPartition(t)
	for sg := 0; sg < p.NumSubgraphs(); sg++ {
		owners := Owners(partition.SubgraphID(sg), workers, factor)
		distinct := slices.Compact(slices.Sorted(slices.Values(owners)))
		if len(owners) != do || len(distinct) != do || owners[0] != sg%workers {
			t.Fatalf("subgraph %d: owners %v, want %d distinct starting at %d", sg, owners, do, sg%workers)
		}
		for w := 0; w < workers; w++ {
			owned := slices.Contains(OwnedBy(w, p.NumSubgraphs(), workers, factor), partition.SubgraphID(sg))
			if owned != slices.Contains(owners, w) {
				t.Fatalf("subgraph %d: OwnedBy(%d) says %v, Owners %v", sg, w, owned, owners)
			}
		}
	}

	before := p.NumSubgraphs()
	a := graph.VertexID(p.Parent().NumVertices())
	up := graph.TopologyUpdate{
		AddVertices: 2,
		InsertEdges: []graph.Edge{{U: a, V: a + 1, Weight: 1}, {U: a + 1, V: testutil.V1, Weight: 2}},
	}
	for w := 0; w < workers; w++ {
		wp := paperPartition(t)
		worker := NewWorker(w, wp, OwnedBy(w, wp.NumSubgraphs(), workers, factor))
		worker.EnableLocalApply()
		if resp := worker.HandleTopologyUpdate(TopologyUpdateRequest{Update: up, NumWorkers: workers, Factor: factor}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		n := worker.Partition().NumSubgraphs()
		if n <= before {
			t.Fatalf("the batch opened no subgraph: %d subgraphs, %d before", n, before)
		}
		for sg := 0; sg < n; sg++ {
			id := partition.SubgraphID(sg)
			if want := slices.Contains(Owners(id, workers, factor), w); worker.Owns(id) != want {
				t.Errorf("worker %d owns subgraph %d: %v, Owners says %v", w, sg, worker.Owns(id), want)
			}
		}
	}
}

// TestBatchedRemoteProviderRoutesToOwners: at factor 1 over two TCP workers,
// a pair whose common subgraphs all belong to worker 0 reaches worker 0 only.
func TestBatchedRemoteProviderRoutesToOwners(t *testing.T) {
	p := paperPartition(t)
	x, err := dtlp.Build(p, dtlp.Config{Xi: 1})
	if err != nil {
		t.Fatal(err)
	}
	var pair core.PairRequest
	found := false
	boundary := p.BoundaryVertices()
	for _, a := range boundary {
		for _, b := range boundary {
			common := commonSubgraphs(p, a, b)
			if a == b || len(common) == 0 {
				continue
			}
			if !slices.ContainsFunc(common, func(sg partition.SubgraphID) bool { return Owners(sg, 2, 1)[0] != 0 }) {
				pair, found = core.PairRequest{A: a, B: b}, true
			}
		}
	}
	if !found {
		t.Fatal("no boundary pair lies in worker 0's subgraphs alone")
	}

	var workers []*Worker
	var remotes []*RemoteWorker
	for w := 0; w < 2; w++ {
		worker := NewWorker(w, p, OwnedBy(w, p.NumSubgraphs(), 2, 1))
		srv, err := Serve("127.0.0.1:0", worker)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		rw, err := DialPool(srv.Addr(), ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer rw.Close()
		workers, remotes = append(workers, worker), append(remotes, rw)
	}
	bp := NewBatchedRemoteProvider(remotes, rpcbatch.Options{})
	defer bp.Close()
	reply := <-bp.PartialKSPAsyncCtx(context.Background(), x.CurrentView(), []core.PairRequest{pair}, 2)
	if reply.Err != nil {
		t.Fatal(reply.Err)
	}
	if len(reply.Paths[0]) == 0 {
		t.Errorf("pair %v got no partial paths", pair)
	}
	for w, worker := range workers {
		want := 0
		if w == 0 {
			want = 1
		}
		if got := worker.HandleStats(StatsRequest{}).PairsServed; got != want {
			t.Errorf("worker %d served %d pairs, want %d", w, got, want)
		}
	}
}
