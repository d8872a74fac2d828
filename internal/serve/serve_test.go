package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
	"kspdg/internal/workload"
)

func buildServer(tb testing.TB, g *graph.Graph, z, xi int, opts Options) (*dtlp.Index, *Server) {
	tb.Helper()
	p, err := partition.PartitionGraph(g, z)
	if err != nil {
		tb.Fatalf("partition: %v", err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: xi})
	if err != nil {
		tb.Fatalf("dtlp: %v", err)
	}
	return x, New(x, nil, opts)
}

func TestServerMatchesEngine(t *testing.T) {
	g := testutil.PaperGraph(t)
	x, s := buildServer(t, g, 6, 2, Options{Workers: 4})
	defer s.Close()
	engine := core.NewEngine(x, nil, core.Options{})
	for _, q := range []struct {
		s, t graph.VertexID
		k    int
	}{{testutil.V1, testutil.V19, 3}, {testutil.V2, testutil.V14, 2}, {testutil.V5, testutil.V17, 4}} {
		got, err := s.Query(context.Background(), Request{Src: q.s, Dst: q.t, K: q.k})
		if err != nil {
			t.Fatalf("server query: %v", err)
		}
		want, err := engine.QueryViewCtx(context.Background(), nil, q.s, q.t, q.k)
		if err != nil {
			t.Fatalf("engine query: %v", err)
		}
		if len(got.Paths) != len(want.Paths) {
			t.Fatalf("server returned %d paths, engine %d", len(got.Paths), len(want.Paths))
		}
		for i := range want.Paths {
			if math.Abs(got.Paths[i].Dist-want.Paths[i].Dist) > 1e-9 {
				t.Errorf("path %d dist %g != %g", i, got.Paths[i].Dist, want.Paths[i].Dist)
			}
		}
	}
}

func TestServerCacheInvalidatedByEpoch(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, s := buildServer(t, g, 6, 2, Options{Workers: 2})
	defer s.Close()

	r1, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Errorf("expected 1 cache hit, got %d", st.CacheHits)
	}
	if r1.Epoch != r2.Epoch {
		t.Errorf("cached result epoch mismatch: %d vs %d", r1.Epoch, r2.Epoch)
	}

	// Raise the weight of every edge on the best path; the cached entry must
	// not survive the epoch bump.
	var batch []graph.WeightUpdate
	verts := r1.Paths[0].Vertices
	for i := 0; i+1 < len(verts); i++ {
		e, ok := g.EdgeBetween(verts[i], verts[i+1])
		if !ok {
			t.Fatalf("edge (%d,%d) missing", verts[i], verts[i+1])
		}
		batch = append(batch, graph.WeightUpdate{Edge: e, NewWeight: g.Snapshot().Weight(e) * 10})
	}
	if _, err := s.ApplyUpdates(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	r3, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Epoch == r1.Epoch {
		t.Fatalf("query after update still served epoch %d", r1.Epoch)
	}
	if r3.Paths[0].Dist <= r1.Paths[0].Dist {
		t.Errorf("after raising best-path weights, dist %g should exceed %g", r3.Paths[0].Dist, r1.Paths[0].Dist)
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Errorf("stale entry served from cache: %d hits", st.CacheHits)
	}
}

// TestServerConcurrentQueriesSnapshotIsolated is the acceptance-criteria
// concurrency test: at least 8 concurrent queriers interleave with at least 3
// weight-update batches through the snapshot layer (run under -race in CI).
// Every result must be internally consistent with the epoch it reports: each
// returned path's edge weights, summed on that epoch's frozen view, must
// reproduce the reported distance, and the path multiset must match an exact
// Yen run on the same frozen weights.
func TestServerConcurrentQueriesSnapshotIsolated(t *testing.T) {
	const (
		queriers         = 8
		queriesPerWorker = 6
		updateBatches    = 4
	)
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomConnected(rng, 60, 30)
	x, s := buildServer(t, g, 12, 2, Options{Workers: queriers})
	defer s.Close()

	type outcome struct {
		s, t graph.VertexID
		k    int
		res  core.Result
	}
	outcomes := make(chan outcome, queriers*queriesPerWorker)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < queriesPerWorker; i++ {
				src := graph.VertexID(qrng.Intn(g.NumVertices()))
				dst := graph.VertexID(qrng.Intn(g.NumVertices()))
				if src == dst {
					continue
				}
				k := 1 + qrng.Intn(4)
				res, err := s.Query(context.Background(), Request{Src: src, Dst: dst, K: k})
				if err != nil {
					t.Errorf("query(%d,%d,%d): %v", src, dst, k, err)
					continue
				}
				outcomes <- outcome{s: src, t: dst, k: k, res: res}
			}
		}(int64(100 + w))
	}
	// Writer goroutine: apply update batches while the queriers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		urng := rand.New(rand.NewSource(5))
		<-start
		for b := 0; b < updateBatches; b++ {
			var batch []graph.WeightUpdate
			for e := 0; e < g.NumEdges(); e++ {
				if urng.Float64() < 0.3 {
					w := g.Snapshot().Weight(graph.EdgeID(e)) * (0.6 + urng.Float64())
					if w < 0.1 {
						w = 0.1
					}
					batch = append(batch, graph.WeightUpdate{Edge: graph.EdgeID(e), NewWeight: w})
				}
			}
			if _, err := s.ApplyUpdates(context.Background(), batch); err != nil {
				t.Errorf("ApplyUpdates: %v", err)
			}
		}
	}()
	close(start)
	wg.Wait()
	close(outcomes)

	if st := s.Stats(); st.UpdateBatches < 3 {
		t.Fatalf("only %d update batches applied", st.UpdateBatches)
	}
	epochs := make(map[uint64]int)
	checked := 0
	for o := range outcomes {
		epochs[o.res.Epoch]++
		view := x.ViewAt(o.res.Epoch)
		if view == nil {
			t.Fatalf("epoch %d evicted from retention window", o.res.Epoch)
		}
		opts := &shortest.Options{Weight: view.GlobalWeight}
		// Reported distances must re-derive from the epoch's frozen weights.
		for i, p := range o.res.Paths {
			sum := 0.0
			for j := 0; j+1 < len(p.Vertices); j++ {
				e, ok := g.EdgeBetween(p.Vertices[j], p.Vertices[j+1])
				if !ok {
					t.Fatalf("result path uses missing edge (%d,%d)", p.Vertices[j], p.Vertices[j+1])
				}
				sum += view.GlobalWeight(e)
			}
			if math.Abs(sum-p.Dist) > 1e-9 {
				t.Errorf("query(%d,%d,%d) path %d: dist %g but epoch-%d weights sum to %g (torn read)",
					o.s, o.t, o.k, i, p.Dist, o.res.Epoch, sum)
			}
		}
		// And the distances must match exact Yen on the same frozen weights.
		want := shortest.Yen(g.Snapshot(), o.s, o.t, o.k, opts)
		if len(o.res.Paths) != len(want) {
			t.Errorf("query(%d,%d,%d)@epoch %d: %d paths, Yen %d", o.s, o.t, o.k, o.res.Epoch, len(o.res.Paths), len(want))
			continue
		}
		for i := range want {
			if math.Abs(o.res.Paths[i].Dist-want[i].Dist) > 1e-9 {
				t.Errorf("query(%d,%d,%d)@epoch %d path %d: dist %g, Yen %g",
					o.s, o.t, o.k, o.res.Epoch, i, o.res.Paths[i].Dist, want[i].Dist)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no query outcomes checked")
	}
	if len(epochs) < 2 {
		t.Logf("all %d queries landed on one epoch; isolation exercised but not across epochs", checked)
	}
}

func TestServerWithClusterProvider(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s := New(x, cl, Options{Workers: 4})
	defer s.Close()
	res, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := testutil.BruteForceKSP(g.Snapshot(), testutil.V1, testutil.V19, 3)
	if len(res.Paths) != len(want) {
		t.Fatalf("cluster-backed server returned %d paths, oracle %d", len(res.Paths), len(want))
	}
	for i := range want {
		if math.Abs(res.Paths[i].Dist-want[i].Dist) > 1e-9 {
			t.Errorf("path %d dist %g, oracle %g", i, res.Paths[i].Dist, want[i].Dist)
		}
	}
}

func TestServerRunScenario(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, s := buildServer(t, g, 6, 2, Options{Workers: 4})
	defer s.Close()
	sc := workload.GenerateMixed(g, 20, 3, 2, 0.3, 0.4, 11)
	if sc.NumQueries() != 20 || sc.NumUpdateBatches() == 0 {
		t.Fatalf("unexpected scenario shape: %d queries, %d batches", sc.NumQueries(), sc.NumUpdateBatches())
	}
	report, err := s.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if errs := report.Errs(); len(errs) > 0 {
		t.Fatalf("scenario queries failed: %v", errs)
	}
	if report.BatchesApplied != sc.NumUpdateBatches() {
		t.Errorf("applied %d batches, scenario has %d", report.BatchesApplied, sc.NumUpdateBatches())
	}
	for i, qr := range report.Results {
		for _, p := range qr.Result.Paths {
			if p.Source() != qr.Query.Source || p.Target() != qr.Query.Target {
				t.Errorf("result %d endpoints wrong: %v", i, p)
			}
		}
	}
}

func TestServerCloseRejectsNewQueries(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, s := buildServer(t, g, 6, 1, Options{Workers: 2})
	if _, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V9, K: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V9, K: 1}); err == nil {
		t.Fatal("query after Close should fail")
	}
}

// panicOnceProvider panics on the calling (pool worker) goroutine the first
// time it is asked to refine, then answers normally.
type panicOnceProvider struct {
	inner    core.PartialProvider
	panicked atomic.Bool
}

func (p *panicOnceProvider) PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int) <-chan core.AsyncPartialReply {
	if p.panicked.CompareAndSwap(false, true) {
		panic("provider blew up")
	}
	return p.inner.PartialKSPAsyncCtx(ctx, iv, pairs, k)
}

// TestPanicFailsOneQueryNotTheServer makes one query panic on its pool
// worker: that query must come back as an error and be counted, the worker
// must keep draining (the pool has a single worker, so the next query proves
// it), and Close must still return.
func TestPanicFailsOneQueryNotTheServer(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(x, &panicOnceProvider{inner: core.NewLocalProvider(p, 0)}, Options{Workers: 1})
	if _, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 2}); err == nil || !strings.Contains(err.Error(), "provider blew up") {
		t.Fatalf("panicking query returned %v, want the contained panic as an error", err)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
	got, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 2})
	if err != nil {
		t.Fatalf("query after the panic: %v", err)
	}
	want, err := core.NewEngine(x, nil, core.Options{}).QueryViewCtx(context.Background(), nil, testutil.V1, testutil.V19, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Paths) != len(want.Paths) || got.Paths[0].Dist != want.Paths[0].Dist {
		t.Errorf("query after the panic answered %v, want %v", got.Paths, want.Paths)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after a contained panic")
	}
}

// blockingProvider parks every refine call until released, for cancellation
// tests.
type blockingProvider struct {
	inner   core.PartialProvider
	release chan struct{}
	entered chan struct{}
}

func newBlockingProvider(inner core.PartialProvider) *blockingProvider {
	return &blockingProvider{inner: inner, release: make(chan struct{}), entered: make(chan struct{}, 16)}
}

func (p *blockingProvider) PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int) <-chan core.AsyncPartialReply {
	pairs = append([]core.PairRequest(nil), pairs...)
	out := make(chan core.AsyncPartialReply, 1)
	go func() {
		select {
		case p.entered <- struct{}{}:
		default:
		}
		<-p.release
		out <- <-p.inner.PartialKSPAsyncCtx(ctx, iv, pairs, k)
	}()
	return out
}

func TestQueryCtxCancelStopsComputation(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	bp := newBlockingProvider(core.NewLocalProvider(p, 0))
	s := New(x, bp, Options{Workers: 1, CacheCapacity: -1})
	defer func() {
		defer func() { _ = recover() }()
		close(bp.release)
		s.Close()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Query(ctx, Request{Src: 3, Dst: 12, K: 2})
		errCh <- err
	}()
	<-bp.entered // the query reached the refine step
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled query returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Query did not return after cancel")
	}

	// The engine abandons the computation once the refine unblocks.
	close(bp.release)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancellation never counted: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
}

func TestQueryAtPinnedEpoch(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, s := buildServer(t, g, 6, 2, Options{Workers: 2})
	defer s.Close()

	res0, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Shift the weights: the current epoch moves past res0's.
	tm := workload.NewTrafficModel(0.5, 0.5, 5)
	for i := 0; i < 3; i++ {
		batch := tm.Derive(g.NumEdges(), g.Directed(), g.Snapshot().Weight)
		if _, err := s.ApplyUpdates(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}

	pinned, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 2, Epoch: &res0.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Epoch != res0.Epoch {
		t.Fatalf("pinned result reports epoch %d, want %d", pinned.Epoch, res0.Epoch)
	}
	if len(pinned.Paths) != len(res0.Paths) {
		t.Fatalf("pinned returned %d paths, original %d", len(pinned.Paths), len(res0.Paths))
	}
	for i := range res0.Paths {
		if pinned.Paths[i].Dist != res0.Paths[i].Dist {
			t.Errorf("pinned path %d dist %v != original %v", i, pinned.Paths[i].Dist, res0.Paths[i].Dist)
		}
	}

	evicted := uint64(10_000)
	if _, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 2, Epoch: &evicted}); !errors.Is(err, ErrEpochEvicted) {
		t.Fatalf("unretained epoch returned %v, want ErrEpochEvicted", err)
	}
}

func TestStreamQueryMatchesQuery(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, s := buildServer(t, g, 6, 2, Options{Workers: 2, CacheCapacity: -1})
	defer s.Close()

	for _, q := range []struct {
		s, t graph.VertexID
		k    int
	}{
		{testutil.V1, testutil.V19, 3},
		{testutil.V3, testutil.V17, 2},
		{testutil.V5, testutil.V12, 4},
	} {
		var streamed []graph.Path
		res, err := s.Query(context.Background(), Request{Src: q.s, Dst: q.t, K: q.k, Yield: func(p graph.Path) error {
			streamed = append(streamed, p)
			return nil
		}})
		if err != nil {
			t.Fatalf("stream query(%d,%d,%d): %v", q.s, q.t, q.k, err)
		}
		if len(streamed) != len(res.Paths) {
			t.Fatalf("query(%d,%d,%d): streamed %d paths, result has %d",
				q.s, q.t, q.k, len(streamed), len(res.Paths))
		}
		for i := range res.Paths {
			if streamed[i].Dist != res.Paths[i].Dist ||
				graph.PathKey(streamed[i]) != graph.PathKey(res.Paths[i]) {
				t.Errorf("query(%d,%d,%d): streamed path %d differs from result", q.s, q.t, q.k, i)
			}
		}
		// Streamed paths arrive in ascending order.
		for i := 1; i < len(streamed); i++ {
			if streamed[i].Dist < streamed[i-1].Dist {
				t.Errorf("query(%d,%d,%d): stream out of order at %d", q.s, q.t, q.k, i)
			}
		}
	}
}

func TestNonConvergedCounter(t *testing.T) {
	g := testutil.PaperGraph(t)
	// An iteration cap of 1 stops the search before the Theorem 3 bound
	// fires, so the answer is not exact and NonConverged must record it.
	_, s := buildServer(t, g, 6, 2, Options{Workers: 2, Engine: core.Options{MaxIterations: 1}})
	defer s.Close()
	res, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("query converged in one iteration; the cap no longer exercises the counter")
	}
	if st := s.Stats(); st.NonConverged != 1 {
		t.Fatalf("NonConverged = %d, want 1", st.NonConverged)
	}
}

// doneSignal is a context that reports the first time its Done channel is
// asked for; Query asks only once it is about to wait on it.
type doneSignal struct {
	context.Context
	asked chan struct{}
}

func (c doneSignal) Done() <-chan struct{} {
	select {
	case c.asked <- struct{}{}:
	default:
	}
	return c.Context.Done()
}

// TestAbandonedEnqueueFailsOnlyItsCaller fills a one-worker server with a
// one-deep queue (A runs, B waits in the queue) and lets a third caller, C,
// hang up while it is blocked on the send.  C must return at once and be
// counted as canceled before anything is released, without ever reaching the
// queue; A and B must still be answered and Close must return.
func TestAbandonedEnqueueFailsOnlyItsCaller(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	bp := newBlockingProvider(core.NewLocalProvider(p, 0))
	s := New(x, bp, Options{Workers: 1, QueueDepth: 1, CacheCapacity: -1})
	released := false
	defer func() {
		if !released {
			close(bp.release)
		}
		s.Close()
	}()

	type outcome struct {
		res core.Result
		err error
	}
	// A occupies the only worker (blocked in its refine step).
	a := make(chan outcome, 1)
	go func() {
		res, err := s.Query(context.Background(), Request{Src: 3, Dst: 12, K: 2})
		a <- outcome{res, err}
	}()
	<-bp.entered
	// B fills the one-slot queue.
	b := make(chan outcome, 1)
	go func() {
		res, err := s.Query(context.Background(), Request{Src: 0, Dst: 15, K: 2})
		b <- outcome{res, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.tasks) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second query never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// C's caller blocks sending to the full queue, then hangs up.
	inner, cancelC := context.WithCancel(context.Background())
	defer cancelC()
	ctxC := doneSignal{Context: inner, asked: make(chan struct{}, 1)}
	c := make(chan outcome, 1)
	go func() {
		res, err := s.Query(ctxC, Request{Src: 1, Dst: 16, K: 2})
		c <- outcome{res, err}
	}()
	select {
	case <-ctxC.asked:
	case <-time.After(5 * time.Second):
		t.Fatal("third query never waited on the queue")
	}
	cancelC()
	select {
	case oc := <-c:
		if !errors.Is(oc.err, context.Canceled) {
			t.Fatalf("canceled caller returned %v, want context.Canceled", oc.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled caller did not return while the queue was full")
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("Canceled = %d before the provider was released, want 1", st.Canceled)
	}

	released = true
	close(bp.release)
	for _, ch := range []chan outcome{a, b} {
		o := <-ch
		if o.err != nil {
			t.Fatalf("surviving query failed: %v", o.err)
		}
		if len(o.res.Paths) == 0 {
			t.Fatal("surviving query got no paths")
		}
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	if st := s.Stats(); st.QueriesServed != 2 || st.Canceled != 1 {
		t.Errorf("served %d, canceled %d; want 2 and 1", st.QueriesServed, st.Canceled)
	}
}
