// Package difftest is the differential test harness that pins KSP-DG's
// correctness to Yen's algorithm, the exact centralized baseline the paper
// compares against (Section 6.5).
//
// The harness generates random connected weighted graphs across a parameter
// grid (directed/undirected, k, ξ, seeds), answers the same queries through
// the KSP-DG engine and through exact Yen on the full graph, and asserts that
// the multisets of returned path lengths are identical — the strongest
// black-box statement of Theorem 3's exactness guarantee.  Checks repeat
// after randomized weight-update batches (exercising the Algorithm 2
// maintenance path) and, in the concurrent variant, while update batches land
// between in-flight queries: each concurrent result is audited against Yen
// running on the frozen weights of the exact epoch the query reports.
package difftest

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"kspdg/internal/baseline"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/serve"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
)

// Params describes one cell of the differential grid.
type Params struct {
	// Directed selects the graph flavour: a random connected undirected
	// graph or a random strongly connected directed graph.
	Directed bool
	// K is the number of shortest paths per query.  Zero means 4.
	K int
	// Xi is the DTLP ξ parameter.  Zero means 2.
	Xi int
	// N is the number of vertices.  Zero means 22.
	N int
	// Extra is the number of extra edges beyond the spanning tree.  Zero
	// means N/3.
	Extra int
	// Z is the partition subgraph size.  Zero means 7.
	Z int
	// Queries is the number of random queries checked per round.  Zero
	// means 4.
	Queries int
	// UpdateRounds is the number of randomized weight-update batches, each
	// followed by a fresh round of differential checks.  Zero means 2.
	UpdateRounds int
	// Seed makes the cell deterministic.
	Seed int64
	// Provider, when set, builds the engine's refine-step provider over the
	// built index — e.g. the batched cluster transport — together with a
	// cleanup function.  Nil runs the refine step on the local provider.
	Provider func(tb testing.TB, x *dtlp.Index) (core.PartialProvider, func())
	// Engine overrides the engine options for the cell — e.g. a tight
	// adaptive iteration budget, whose near-exact claims the checks then
	// audit against exact Yen.  The zero value runs the defaults.
	Engine core.Options
}

func (p Params) withDefaults() Params {
	if p.K == 0 {
		p.K = 4
	}
	if p.N == 0 {
		p.N = 22
	}
	if p.Extra == 0 {
		p.Extra = p.N / 3
	}
	if p.Z == 0 {
		p.Z = 7
	}
	if p.Xi == 0 {
		p.Xi = 2
	}
	if p.Queries == 0 {
		p.Queries = 4
	}
	if p.UpdateRounds == 0 {
		p.UpdateRounds = 2
	}
	return p
}

func (p Params) buildGraph(rng *rand.Rand) *graph.Graph {
	if p.Directed {
		return testutil.RandomStronglyConnected(rng, p.N, p.Extra)
	}
	return testutil.RandomConnected(rng, p.N, p.Extra)
}

// lengths extracts the sorted multiset of path distances.
func lengths(paths []graph.Path) []float64 {
	out := make([]float64, len(paths))
	for i, p := range paths {
		out[i] = p.Dist
	}
	sort.Float64s(out)
	return out
}

// sameLengths reports whether two sorted length multisets agree to 1e-9.
func sameLengths(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// withinGap audits a budget-terminated result's near-exactness claim: the
// sorted returned lengths must pairwise dominate the exact lengths (a k
// shortest path answer can never beat exact Yen) while exceeding them by at
// most the reported bound gap.
func withinGap(got, want []float64, gap float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] < want[i]-1e-9 || got[i] > want[i]+gap+1e-9 {
			return false
		}
	}
	return true
}

// Check runs one differential grid cell: KSP-DG versus exact Yen on the same
// queries, before and after each randomized weight-update batch.
func Check(tb testing.TB, p Params) {
	tb.Helper()
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	g := p.buildGraph(rng)
	part, err := partition.PartitionGraph(g, p.Z)
	if err != nil {
		tb.Fatalf("partition: %v", err)
	}
	x, err := dtlp.Build(part, dtlp.Config{Xi: p.Xi})
	if err != nil {
		tb.Fatalf("dtlp build: %v", err)
	}
	var provider core.PartialProvider
	if p.Provider != nil {
		var cleanup func()
		provider, cleanup = p.Provider(tb, x)
		defer cleanup()
	}
	engine := core.NewEngine(x, provider, p.Engine)
	yen := baseline.NewYen(g)

	round := func(label string) {
		for q := 0; q < p.Queries; q++ {
			s := graph.VertexID(rng.Intn(p.N))
			t := graph.VertexID(rng.Intn(p.N))
			if s == t {
				continue
			}
			got, err := engine.QueryViewCtx(context.Background(), nil, s, t, p.K)
			if err != nil {
				tb.Fatalf("%s: KSP-DG query(%d,%d,%d): %v", label, s, t, p.K, err)
			}
			want, err := yen.Query(s, t, p.K)
			if err != nil {
				tb.Fatalf("%s: Yen query(%d,%d,%d): %v", label, s, t, p.K, err)
			}
			gl, wl := lengths(got.Paths), lengths(want)
			switch {
			case got.Converged && got.BoundGap > 0:
				// The adaptive iteration budget terminated the search early
				// with a near-exact claim: every returned length must be
				// within the reported bound gap of its exact counterpart.
				if !withinGap(gl, wl, got.BoundGap) {
					tb.Errorf("%s: query(%d,%d,%d) violated its near-exactness claim: KSP-DG lengths %v not within bound gap %g of Yen lengths %v",
						label, s, t, p.K, gl, got.BoundGap, wl)
				} else if !sameLengths(gl, wl) {
					tb.Logf("%s: query(%d,%d,%d) budget-terminated after %d iterations, near-exact within bound gap %g",
						label, s, t, p.K, got.Iterations, got.BoundGap)
				}
			case sameLengths(gl, wl) && !got.Converged:
				// The MaxIterations safety valve fired before k candidates
				// existed, yet the answer matched exact Yen anyway.
				tb.Logf("%s: iteration-cap outlier: query(%d,%d,%d) exact after %d iterations without the Theorem 3 bound",
					label, s, t, p.K, got.Iterations)
			case !sameLengths(gl, wl) && !got.Converged:
				tb.Errorf("%s: query(%d,%d,%d) truncated by the iteration cap: KSP-DG lengths %v != Yen lengths %v",
					label, s, t, p.K, gl, wl)
			case !sameLengths(gl, wl):
				tb.Errorf("%s: query(%d,%d,%d): KSP-DG lengths %v != Yen lengths %v",
					label, s, t, p.K, gl, wl)
			}
			for i, path := range got.Paths {
				if err := path.Validate(g.Snapshot()); err != nil {
					tb.Errorf("%s: query(%d,%d,%d) path %d invalid: %v", label, s, t, p.K, i, err)
				}
			}
		}
	}

	round("initial")
	for r := 1; r <= p.UpdateRounds; r++ {
		batch := testutil.PerturbWeights(g, rng, 0.35, 0.45, 0.1)
		if _, err := x.ApplyUpdates(batch); err != nil {
			tb.Fatalf("round %d: ApplyUpdates: %v", r, err)
		}
		round("after-updates")
	}
}

// ConcurrentParams describes a concurrent differential run through the
// snapshot-isolated serve layer.
type ConcurrentParams struct {
	// Queriers is the number of concurrent query goroutines.  Zero means 8.
	Queriers int
	// QueriesPerQuerier is the number of queries each goroutine issues.
	// Zero means 5.
	QueriesPerQuerier int
	// UpdateBatches is the number of weight-update batches applied while the
	// queriers run.  Zero means 3.
	UpdateBatches int
	// K, Xi, N, Extra, Z and Directed mirror Params.
	K, Xi, N, Extra, Z int
	Directed           bool
	Seed               int64
	// Provider mirrors Params.Provider: it selects the refine transport the
	// serve layer fans out on (nil = local).  With a batching transport this
	// makes the audit cover the shared per-worker queues: concurrent queries
	// pinned to different epochs ship through the same queues, and every
	// result must still match Yen on the exact epoch it reports.
	Provider func(tb testing.TB, x *dtlp.Index) (core.PartialProvider, func())
}

// CheckConcurrent floods a serve.Server with concurrent queries while weight
// update batches land, then audits every result against exact Yen running on
// the frozen weights of the epoch that result reports.  A mismatch means a
// query observed torn weights — i.e. snapshot isolation failed.
func CheckConcurrent(tb testing.TB, cp ConcurrentParams) {
	tb.Helper()
	if cp.Queriers == 0 {
		cp.Queriers = 8
	}
	if cp.QueriesPerQuerier == 0 {
		cp.QueriesPerQuerier = 5
	}
	if cp.UpdateBatches == 0 {
		cp.UpdateBatches = 3
	}
	p := Params{Directed: cp.Directed, K: cp.K, Xi: cp.Xi, N: cp.N, Extra: cp.Extra, Z: cp.Z, Seed: cp.Seed}.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	g := p.buildGraph(rng)
	part, err := partition.PartitionGraph(g, p.Z)
	if err != nil {
		tb.Fatalf("partition: %v", err)
	}
	x, err := dtlp.Build(part, dtlp.Config{Xi: p.Xi})
	if err != nil {
		tb.Fatalf("dtlp build: %v", err)
	}
	var provider core.PartialProvider
	if cp.Provider != nil {
		var cleanup func()
		provider, cleanup = cp.Provider(tb, x)
		defer cleanup()
	}
	srv := serve.New(x, provider, serve.Options{Workers: cp.Queriers})
	defer srv.Close()

	type outcome struct {
		s, t graph.VertexID
		k    int
		res  core.Result
	}
	outcomes := make(chan outcome, cp.Queriers*cp.QueriesPerQuerier)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < cp.Queriers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < cp.QueriesPerQuerier; i++ {
				s := graph.VertexID(qrng.Intn(p.N))
				t := graph.VertexID(qrng.Intn(p.N))
				if s == t {
					continue
				}
				res, err := srv.Query(context.Background(), serve.Request{Src: s, Dst: t, K: p.K})
				if err != nil {
					tb.Errorf("query(%d,%d,%d): %v", s, t, p.K, err)
					continue
				}
				outcomes <- outcome{s: s, t: t, k: p.K, res: res}
			}
		}(p.Seed + int64(w) + 1)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		urng := rand.New(rand.NewSource(p.Seed + 999))
		<-start
		for b := 0; b < cp.UpdateBatches; b++ {
			var batch []graph.WeightUpdate
			cur := g.Snapshot()
			for e := 0; e < g.NumEdges(); e++ {
				if urng.Float64() < 0.3 {
					w := cur.Weight(graph.EdgeID(e)) * (0.55 + urng.Float64()*0.9)
					if w < 0.1 {
						w = 0.1
					}
					batch = append(batch, graph.WeightUpdate{Edge: graph.EdgeID(e), NewWeight: w})
				}
			}
			if _, err := srv.ApplyUpdates(context.Background(), batch); err != nil {
				tb.Errorf("ApplyUpdates batch %d: %v", b, err)
			}
		}
	}()
	close(start)
	wg.Wait()
	close(outcomes)

	if st := srv.Stats(); st.UpdateBatches < int64(cp.UpdateBatches) {
		tb.Fatalf("only %d/%d update batches applied", st.UpdateBatches, cp.UpdateBatches)
	}
	audited := 0
	for o := range outcomes {
		view := x.ViewAt(o.res.Epoch)
		if view == nil {
			tb.Fatalf("epoch %d evicted from the retention window", o.res.Epoch)
		}
		want := shortest.Yen(g.Snapshot(), o.s, o.t, o.k, &shortest.Options{Weight: view.GlobalWeight})
		gl, wl := lengths(o.res.Paths), lengths(want)
		switch {
		case o.res.Converged && o.res.BoundGap > 0:
			if !withinGap(gl, wl, o.res.BoundGap) {
				tb.Errorf("query(%d,%d,%d)@epoch %d violated its near-exactness claim: KSP-DG lengths %v not within bound gap %g of Yen-at-epoch lengths %v",
					o.s, o.t, o.k, o.res.Epoch, gl, o.res.BoundGap, wl)
			} else if !sameLengths(gl, wl) {
				tb.Logf("query(%d,%d,%d)@epoch %d budget-terminated, near-exact within bound gap %g",
					o.s, o.t, o.k, o.res.Epoch, o.res.BoundGap)
			}
		case sameLengths(gl, wl) && !o.res.Converged:
			// The iteration cap fired but the answer still matches exact Yen:
			// a convergence outlier, made visible instead of passing silently
			// as if the Theorem 3 bound had been reached.
			tb.Logf("iteration-cap outlier: query(%d,%d,%d)@epoch %d returned exact results without converging (%d iterations)",
				o.s, o.t, o.k, o.res.Epoch, o.res.Iterations)
		case !sameLengths(gl, wl) && !o.res.Converged:
			tb.Errorf("query(%d,%d,%d)@epoch %d truncated by the iteration cap: KSP-DG lengths %v != Yen-at-epoch lengths %v",
				o.s, o.t, o.k, o.res.Epoch, gl, wl)
		case !sameLengths(gl, wl):
			tb.Errorf("query(%d,%d,%d)@epoch %d: KSP-DG lengths %v != Yen-at-epoch lengths %v (snapshot isolation violated)",
				o.s, o.t, o.k, o.res.Epoch, gl, wl)
		}
		audited++
	}
	if audited == 0 {
		tb.Fatal("no outcomes audited")
	}
}
