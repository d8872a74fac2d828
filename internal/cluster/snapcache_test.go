package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/workload"
)

// roadPartition partitions the 30×20 workload road network (integer weights
// 1–10, so equally long paths abound) at z.  Every call derives the same
// partition, as every worker process of a fleet does.
func roadPartition(tb testing.TB, z int) *partition.Partition {
	tb.Helper()
	ds, err := workload.Generate(workload.RoadNetworkSpec{
		Width: 30, Height: 20,
		DiagonalFraction: 0.15, MissingFraction: 0.25,
		MinWeight: 1, MaxWeight: 10, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := partition.PartitionGraph(ds.Graph, z)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// boundaryPairs draws n distinct pairs of boundary vertices that share a
// subgraph, the shape of the pairs a master ships.
func boundaryPairs(p *partition.Partition, n int, seed int64) []core.PairRequest {
	rng := rand.New(rand.NewSource(seed))
	boundary := p.BoundaryVertices()
	seen := make(map[core.PairRequest]bool, n)
	var pairs []core.PairRequest
	for len(pairs) < n {
		pr := core.PairRequest{A: boundary[rng.Intn(len(boundary))], B: boundary[rng.Intn(len(boundary))]}
		if pr.A != pr.B && !seen[pr] && len(commonSubgraphs(p, pr.A, pr.B)) > 0 {
			seen[pr] = true
			pairs = append(pairs, pr)
		}
	}
	return pairs
}

// sameFlat reports whether two replies carry the same FlatPaths, bit for bit.
func sameFlat(a, b *FlatPaths) bool {
	return slices.Equal(a.Verts, b.Verts) && slices.Equal(a.Lens, b.Lens) && slices.Equal(a.Counts, b.Counts) &&
		slices.EqualFunc(a.Dists, b.Dists, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// freshReply answers req on a new worker over a new copy of the partition
// with batches applied: no snapshot, no cache, nothing the worker under test
// computed.
func freshReply(t *testing.T, z int, owned []partition.SubgraphID, req PartialKSPRequest, batches ...[]graph.WeightUpdate) PartialKSPResponse {
	t.Helper()
	p := roadPartition(t, z)
	for _, b := range batches {
		if _, err := p.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
	}
	return NewWorker(0, p, owned).HandlePartialKSP(req)
}

// A standalone worker's snapshot cache never changes an answer: asked the
// same pairs at K = 3, 8, 3 and again after a batch that touched one owned
// subgraph, it replies byte for byte what a fresh worker over the same
// weights replies.  The batch re-snapshots only the subgraph it touched.
func TestWorkerSnapshotCacheMatchesFreshWorker(t *testing.T) {
	const z = 200
	p := roadPartition(t, z)
	owned := OwnedBy(0, p.NumSubgraphs(), 2, 1)
	if len(owned) < 2 {
		t.Fatalf("need two owned subgraphs, got %v", owned)
	}
	w := NewWorker(0, p, owned)
	w.EnableLocalApply()
	pairs := boundaryPairs(p, 40, 1)

	var applied [][]graph.WeightUpdate
	ask := func(k int) {
		t.Helper()
		req := PartialKSPRequest{Pairs: pairs, K: k}
		got := w.HandlePartialKSP(req)
		if want := freshReply(t, z, owned, req, applied...); !sameFlat(got.Flat, want.Flat) {
			gotPaths, wantPaths := got.DecodePaths(), want.DecodePaths()
			for i := range wantPaths {
				var mine []graph.Path
				if i < len(gotPaths) {
					mine = gotPaths[i]
				}
				if !pathsEqual(mine, wantPaths[i]) {
					t.Fatalf("k=%d after %d batches, pair %v: the cached worker replied\n%v\na fresh worker\n%v",
						k, len(applied), pairs[i], mine, wantPaths[i])
				}
			}
			t.Fatalf("k=%d after %d batches: the replies differ in their flat encoding alone", k, len(applied))
		}
	}
	for _, k := range []int{3, 8, 3} {
		ask(k)
	}

	// The K=8 answers are on the snapshots now.
	st := w.state.Load()
	hits := 0
	for _, pr := range pairs {
		for _, id := range commonSubgraphs(p, pr.A, pr.B) {
			if snap := st.snaps[id]; snap != nil {
				sub := p.Subgraph(id)
				la, _ := sub.ToLocal(pr.A)
				lb, _ := sub.ToLocal(pr.B)
				if _, ok := snap.CachedPaths(la, lb, 8); ok {
					hits++
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("no pair answer is cached on the worker's snapshots")
	}

	touched := owned[0]
	var batch []graph.WeightUpdate
	for i, ge := range p.Subgraph(touched).GlobalEdges {
		if i%3 == 0 {
			batch = append(batch, graph.WeightUpdate{Edge: ge, NewWeight: float64(1 + (i*7)%10)})
		}
	}
	if resp := w.HandleWeightUpdate(WeightUpdateRequest{Updates: batch}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	applied = append(applied, batch)
	next := w.state.Load()
	for _, id := range owned {
		if shared := next.snaps[id] == st.snaps[id]; shared == (id == touched) {
			t.Errorf("subgraph %d (touched %v): snapshot shared with the previous state = %v", id, id == touched, shared)
		}
	}
	for _, k := range []int{3, 8, 3} {
		ask(k)
	}
}

// Requests racing a stream of weight batches each read one state: every
// reply equals a fresh worker's reply at one of the states the worker went
// through, never a mix of two batches.  Run it under -race.
func TestWorkerSnapshotsNeverMixBatches(t *testing.T) {
	const z = 200
	p := roadPartition(t, z)
	owned := OwnedBy(0, p.NumSubgraphs(), 1, 1)
	w := NewWorker(0, p, owned)
	w.EnableLocalApply()
	req := PartialKSPRequest{Pairs: boundaryPairs(p, 12, 2), K: 3}

	// Every batch redraws every edge weight, so two batches' answers differ
	// on nearly every pair.
	nBatches := 8
	if testing.Short() {
		nBatches = 4
	}
	rng := rand.New(rand.NewSource(3))
	batches := make([][]graph.WeightUpdate, nBatches)
	for i := range batches {
		for e := 0; e < p.Parent().NumEdges(); e++ {
			batches[i] = append(batches[i], graph.WeightUpdate{Edge: graph.EdgeID(e), NewWeight: float64(1 + rng.Intn(10))})
		}
	}
	states := make([]PartialKSPResponse, nBatches+1)
	for i := range states {
		states[i] = freshReply(t, z, owned, req, batches[:i]...)
	}

	var (
		done    atomic.Bool
		served  atomic.Int64
		mu      sync.Mutex
		replies []PartialKSPResponse
		wg      sync.WaitGroup
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				resp := w.HandlePartialKSP(req)
				served.Add(1)
				mu.Lock()
				replies = append(replies, resp)
				mu.Unlock()
			}
		}()
	}
	for _, b := range batches {
		// Let a request or two start on the current state first.
		for start := served.Load(); served.Load() == start; {
			time.Sleep(100 * time.Microsecond)
		}
		if resp := w.HandleWeightUpdate(WeightUpdateRequest{Updates: b}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	for start := served.Load(); served.Load() < start+2; {
		time.Sleep(100 * time.Microsecond)
	}
	done.Store(true)
	wg.Wait()

	seen := make([]bool, len(states))
	for n, resp := range replies {
		i := slices.IndexFunc(states, func(s PartialKSPResponse) bool { return sameFlat(resp.Flat, s.Flat) })
		if i < 0 {
			t.Fatalf("reply %d of %d matches none of the %d states the worker went through", n, len(replies), len(states))
		}
		seen[i] = true
	}
	if !seen[len(states)-1] {
		t.Error("no reply read the last batch")
	}
}

// BenchmarkWorkerPartialKSP times one worker request of 32 boundary pairs at
// k = 8 on the 30×20 road network at z = 200.  cold publishes new snapshots,
// with unchanged weights, before every request, so every pair runs Yen; warm keeps one set of
// snapshots, so every pair after the first request is a snapshot-cache hit.
func BenchmarkWorkerPartialKSP(b *testing.B) {
	p := roadPartition(b, 200)
	w := NewWorker(0, p, OwnedBy(0, p.NumSubgraphs(), 1, 1))
	w.EnableLocalApply()
	req := PartialKSPRequest{Pairs: boundaryPairs(p, 32, 1), K: 8}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for _, sg := range p.Subgraphs {
				same := []graph.WeightUpdate{{Edge: 0, NewWeight: sg.Local.Snapshot().Weight(0)}}
				if err := sg.Local.ApplyUpdates(same); err != nil {
					b.Fatal(err)
				}
			}
			st := *w.state.Load()
			w.state.Store(st.withSnapshots())
			b.StartTimer()
			w.HandlePartialKSP(req)
		}
	})
	b.Run("warm", func(b *testing.B) {
		w.HandlePartialKSP(req)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.HandlePartialKSP(req)
		}
	})
}

// BenchmarkWorkerWeightUpdate is the worker hop of the write path: a
// standalone worker owning half the subgraphs of the 30×20 road network at
// z = 80 applies a weight batch to its partition copy and publishes the next
// state.  It cycles through 40 batches, each moving a share alpha of the
// live edges by up to ±30 % of their initial weight, at the shares the
// end-to-end benchmark's workloads move (α 0.05 everywhere, 0.2 on
// rush-mixed).
func BenchmarkWorkerWeightUpdate(b *testing.B) {
	for _, alpha := range []float64{0.05, 0.2} {
		b.Run(fmt.Sprintf("z80/alpha%g", alpha), func(b *testing.B) {
			p := roadPartition(b, 80)
			g := p.Parent()
			w := NewWorker(0, p, OwnedBy(0, p.NumSubgraphs(), 2, 1))
			w.EnableLocalApply()
			tm := workload.NewTrafficModel(alpha, 0.3, 3)
			batches := make([]WeightUpdateRequest, 40)
			for i := range batches {
				for _, u := range tm.Derive(g.NumEdges(), false, g.InitialWeight) {
					if g.EdgeAlive(u.Edge) {
						batches[i].Updates = append(batches[i].Updates, u)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := w.HandleWeightUpdate(batches[i%len(batches)]); resp.Err != "" {
					b.Fatal(resp.Err)
				}
			}
		})
	}
}
