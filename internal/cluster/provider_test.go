package cluster

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
)

// fakeCalls are in-process worker calls that answer every pair with one
// path whose distance is the request's epoch, so a test can tell which epoch
// served a pair.  When gated, each call announces itself on arrived and stays
// on the wire until the test releases it, which makes every shipped share
// observable without a sleep.
type fakeCalls struct {
	arrived chan *heldCall // nil: calls return at once
	drain   chan struct{}  // closed when the test ends: held calls return
	calls   atomic.Int64
}

// heldCall is one worker call held at the gate.
type heldCall struct {
	req     PartialKSPRequest
	release chan error // send nil to answer the call, an error to fail it
}

func (f *fakeCalls) call(req PartialKSPRequest) (PartialKSPResponse, error) {
	f.calls.Add(1)
	if f.arrived != nil {
		hc := &heldCall{req: req, release: make(chan error, 1)}
		f.arrived <- hc
		select {
		case err := <-hc.release:
			if err != nil {
				return PartialKSPResponse{}, err
			}
		case <-f.drain:
		}
	}
	resp := PartialKSPResponse{Flat: &FlatPaths{}, ServedEpoch: req.HasEpoch}
	for _, pr := range req.Pairs {
		resp.Flat.appendPath(graph.Path{Vertices: []graph.VertexID{pr.A, pr.B}, Dist: float64(req.Epoch)})
		resp.Flat.Counts = append(resp.Flat.Counts, 1)
	}
	return resp, nil
}

// next waits for the next share to reach a worker call.
func (f *fakeCalls) next(t *testing.T) *heldCall {
	t.Helper()
	select {
	case hc := <-f.arrived:
		return hc
	case <-time.After(10 * time.Second):
		t.Fatal("no share reached the worker")
		return nil
	}
}

// fakeProvider returns a factor-1 provider over the given number of fake
// worker calls, all sharing one fakeCalls, and the index whose views the
// test pins requests to.  When the test ends — passed or failed — the gate
// opens and the provider closes, so a failed assertion never leaves a share
// on the wire for Close to wait on.
func fakeProvider(t *testing.T, workers int, gated bool, opts ReplicatedOptions) (*fakeCalls, *BatchedRemoteProvider, *dtlp.Index) {
	t.Helper()
	x, err := dtlp.Build(paperPartition(t), dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCalls{drain: make(chan struct{})}
	if gated {
		f.arrived = make(chan *heldCall, 64)
	}
	calls := make([]func(PartialKSPRequest) (PartialKSPResponse, error), workers)
	for w := range calls {
		calls[w] = f.call
	}
	p := newProvider(calls, 1, opts, nil)
	t.Cleanup(p.Close)
	t.Cleanup(func() { close(f.drain) }) // runs first: cleanups are LIFO
	return f, p, x
}

// routedPairs returns n distinct pairs of boundary vertices that share a
// subgraph, so each of them ships to at least one worker.
func routedPairs(t testing.TB, part *partition.Partition, n int) []core.PairRequest {
	t.Helper()
	b := part.BoundaryVertices()
	var pairs []core.PairRequest
	for i := range b {
		for j := i + 1; j < len(b) && len(pairs) < n; j++ {
			if len(part.CommonSubgraphs(b[i], b[j])) > 0 {
				pairs = append(pairs, core.PairRequest{A: b[i], B: b[j]})
			}
		}
	}
	if len(pairs) < n {
		t.Fatalf("found %d routed pairs, want %d", len(pairs), n)
	}
	return pairs
}

// ask submits one untraced refine request pinned to iv.
func ask(p *BatchedRemoteProvider, iv *dtlp.IndexView, pairs []core.PairRequest) <-chan core.AsyncPartialReply {
	return p.PartialKSPAsyncCtx(context.Background(), iv, pairs, 2)
}

// answer waits for a refine request's reply.
func answer(t *testing.T, ch <-chan core.AsyncPartialReply) core.AsyncPartialReply {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("caller never got its reply")
		return core.AsyncPartialReply{}
	}
}

// Each share ships the moment it is submitted, whatever is already on the
// wire to its worker: query 1's share stays held at the gate while query 2's
// share to the same worker reaches the call and is answered.
func TestProviderShipsEachShareAtOnce(t *testing.T) {
	f, p, x := fakeProvider(t, 1, true, ReplicatedOptions{})
	iv := x.CurrentView()
	pairs := routedPairs(t, x.Partition(), 3)
	first := ask(p, iv, pairs[:1])
	held := f.next(t)

	second := ask(p, iv, pairs[1:])
	if got := p.BatchStats().Batches; got != 2 {
		t.Fatalf("query 2 returned with %d shares shipped, want 2: its share waits behind query 1's", got)
	}
	hc := f.next(t)
	if !slices.Equal(hc.req.Pairs, pairs[1:]) {
		t.Fatalf("query 2's share carries %v, want %v", hc.req.Pairs, pairs[1:])
	}
	hc.release <- nil
	if r := answer(t, second); r.Err != nil || len(r.Paths) != 2 {
		t.Fatalf("query 2: %+v", r)
	}
	select {
	case r := <-first:
		t.Fatalf("query 1 answered while its share is held: %+v", r)
	default:
	}
	held.release <- nil
	if r := answer(t, first); r.Err != nil || len(r.Paths) != 1 {
		t.Fatalf("query 1: %+v", r)
	}
}

// A worker call that fails fails its share; at factor 1 the share has no
// other owner, so the query sees the call's error.
func TestProviderCallErrorFailsTheQuery(t *testing.T) {
	f, p, x := fakeProvider(t, 1, true, ReplicatedOptions{})
	ch := ask(p, x.CurrentView(), routedPairs(t, x.Partition(), 1))
	f.next(t).release <- errors.New("worker down")
	if r := answer(t, ch); r.Err == nil || !strings.Contains(r.Err.Error(), "worker down") {
		t.Fatalf("err = %v, want the call's error", r.Err)
	}
}

// Close waits for the shares on the wire to be answered, and fails the
// requests made after it.
func TestProviderCloseWaitsForShares(t *testing.T) {
	f, p, x := fakeProvider(t, 1, true, ReplicatedOptions{})
	iv := x.CurrentView()
	pairs := routedPairs(t, x.Partition(), 4)
	first := ask(p, iv, pairs[:1])
	held := f.next(t)
	later := ask(p, iv, pairs[1:])
	second := f.next(t)
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	second.release <- nil
	if r := answer(t, later); r.Err != nil || len(r.Paths) != 3 {
		t.Fatalf("later query: %+v", r)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a share still on the wire")
	default:
	}
	held.release <- nil
	if r := answer(t, first); r.Err != nil || len(r.Paths) != 1 {
		t.Fatalf("first query: %+v", r)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	if r := answer(t, ask(p, iv, pairs[:1])); r.Err == nil || !strings.Contains(r.Err.Error(), errClosed.Error()) {
		t.Fatalf("request after Close: err = %v, want %v", r.Err, errClosed)
	}
	if st := p.BatchStats(); st.Batches != 2 {
		t.Errorf("stats %+v: the request after Close must ship nothing", st)
	}
}

func TestProviderEmptyRequestShipsNothing(t *testing.T) {
	f, p, x := fakeProvider(t, 1, false, ReplicatedOptions{})
	if r := answer(t, ask(p, x.CurrentView(), nil)); r.Err != nil || len(r.Paths) != 0 {
		t.Fatalf("empty request: %+v", r)
	}
	if st := p.BatchStats(); st.Batches != 0 || f.calls.Load() != 0 {
		t.Errorf("empty request shipped: stats %+v, %d calls", st, f.calls.Load())
	}
}

// Every request carries the pinned view's epoch, and requests pinned to
// different epochs never share a worker call.
func TestProviderRequestsCarryThePinnedEpoch(t *testing.T) {
	f, p, x := fakeProvider(t, 1, true, ReplicatedOptions{})
	pairs := routedPairs(t, x.Partition(), 1)
	old := x.CurrentView()
	if _, err := x.ApplyUpdates([]graph.WeightUpdate{{Edge: 0, NewWeight: 5}}); err != nil {
		t.Fatal(err)
	}
	cur := x.CurrentView()
	if old.Epoch() == cur.Epoch() {
		t.Fatal("the update published no new epoch")
	}
	chOld := ask(p, old, pairs)
	heldOld := f.next(t)
	chCur := ask(p, cur, pairs)
	heldCur := f.next(t)
	for _, c := range []struct {
		hc *heldCall
		iv *dtlp.IndexView
	}{{heldOld, old}, {heldCur, cur}} {
		if !c.hc.req.HasEpoch || c.hc.req.Epoch != c.iv.Epoch() {
			t.Errorf("request pinned to epoch %d carried epoch %d (pinned %v)", c.iv.Epoch(), c.hc.req.Epoch, c.hc.req.HasEpoch)
		}
		c.hc.release <- nil
	}
	for _, c := range []struct {
		ch <-chan core.AsyncPartialReply
		iv *dtlp.IndexView
	}{{chOld, old}, {chCur, cur}} {
		r := answer(t, c.ch)
		if r.Err != nil || len(r.Paths[pairs[0]]) != 1 || r.Paths[pairs[0]][0].Dist != float64(c.iv.Epoch()) {
			t.Errorf("request pinned to epoch %d: %+v", c.iv.Epoch(), r)
		}
	}
}

// TestProviderConcurrentAccounting hammers the provider from several
// goroutines across several epochs and two workers: every answer comes from
// its own epoch, every submitted pair ships (Enqueued == PairsSent), Batches
// counts the worker calls, and Observe fires once per share with its pairs.
func TestProviderConcurrentAccounting(t *testing.T) {
	var observed, observedPairs atomic.Int64
	f, p, x := fakeProvider(t, 2, false, ReplicatedOptions{Batch: rpcbatch.Options{Observe: func(pairs int, _ time.Duration) {
		observed.Add(1)
		observedPairs.Add(int64(pairs))
	}}})
	pool := routedPairs(t, x.Partition(), 12)
	views := []*dtlp.IndexView{x.CurrentView()}
	for e := 1; e < 3; e++ {
		if _, err := x.ApplyUpdates([]graph.WeightUpdate{{Edge: 0, NewWeight: float64(4 + e)}}); err != nil {
			t.Fatal(err)
		}
		views = append(views, x.CurrentView())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				iv := views[rng.Intn(len(views))]
				start := rng.Intn(len(pool))
				pairs := pool[start:min(len(pool), start+1+rng.Intn(4))]
				r := <-ask(p, iv, pairs)
				if r.Err != nil {
					t.Errorf("request failed: %v", r.Err)
					return
				}
				for _, pr := range pairs {
					if ps := r.Paths[pr]; len(ps) == 0 || ps[0].Dist != float64(iv.Epoch()) {
						t.Errorf("pair %v at epoch %d answered %v", pr, iv.Epoch(), ps)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := p.BatchStats()
	if st.Enqueued != st.PairsSent || st.DedupHits != 0 || st.CacheHits != 0 {
		t.Errorf("accounting broken: %+v", st)
	}
	if st.Batches != f.calls.Load() || st.Batches != observed.Load() || st.PairsSent != observedPairs.Load() {
		t.Errorf("stats %+v, %d calls, Observe saw %d shares of %d pairs", st, f.calls.Load(), observed.Load(), observedPairs.Load())
	}
}

// BenchmarkProviderRound is one refine round as a closed loop of two
// queries pays it: submit a pair, wait for the answer, over an in-process
// loopback call that answers at once — what remains is the provider's own
// routing and dispatch.
func BenchmarkProviderRound(b *testing.B) {
	x, err := dtlp.Build(paperPartition(b), dtlp.Config{Xi: 2})
	if err != nil {
		b.Fatal(err)
	}
	f := &fakeCalls{}
	p := newProvider([]func(PartialKSPRequest) (PartialKSPResponse, error){f.call}, 1, ReplicatedOptions{}, nil)
	defer p.Close()
	iv := x.CurrentView()
	pool := routedPairs(b, x.Partition(), 2)
	b.ReportAllocs()
	b.SetParallelism(1)
	var caller atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		pairs := []core.PairRequest{pool[caller.Add(1)%2]}
		for pb.Next() {
			if r := <-ask(p, iv, pairs); r.Err != nil {
				b.Error(r.Err)
				return
			}
		}
	})
}
