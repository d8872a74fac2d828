package rpcbatch

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
	"kspdg/internal/graph"
)

// fakeSender answers every pair with one path whose distance encodes the
// epoch, so tests can tell which epoch served a pair.  When gated, each batch
// announces itself on arrived and stays "on the wire" until the test releases
// it, which makes every shipped batch observable without a sleep.
type fakeSender struct {
	arrived  chan *wireBatch // nil: batches return at once
	drain    chan struct{}   // closed when the test ends: held batches return
	unpinned bool            // report answers as not epoch-frozen
}

// wireBatch is one batch held at the gate.
type wireBatch struct {
	pairs   []core.PairRequest
	release chan error // send nil to answer the batch, an error to fail it
}

// doAsync submits pairs untraced.
func doAsync(b *Batcher, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) <-chan Result {
	return b.DoAsyncCtx(context.Background(), pairs, k, epoch, hasEpoch)
}

// do is doAsync followed by a blocking wait.
func do(b *Batcher, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) (map[core.PairRequest][]graph.Path, error) {
	res := <-doAsync(b, pairs, k, epoch, hasEpoch)
	return res.Paths, res.Err
}

// newGated returns a batcher over a gated sender.  When the test ends —
// passed or failed — the gate opens and the batcher is closed, so a failed
// assertion never leaves a batch on the wire for Close to wait on.
func newGated(t *testing.T, opts Options) (*fakeSender, *Batcher) {
	fs := &fakeSender{arrived: make(chan *wireBatch, 64), drain: make(chan struct{})}
	b := New(fs.send, opts)
	t.Cleanup(b.Close)
	t.Cleanup(func() { close(fs.drain) }) // runs first: cleanups are LIFO
	return fs, b
}

func (fs *fakeSender) send(_ context.Context, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) (map[core.PairRequest][]graph.Path, bool, error) {
	if fs.arrived != nil {
		wb := &wireBatch{pairs: append([]core.PairRequest(nil), pairs...), release: make(chan error, 1)}
		fs.arrived <- wb
		select {
		case err := <-wb.release:
			if err != nil {
				return nil, false, err
			}
		case <-fs.drain:
		}
	}
	out := make(map[core.PairRequest][]graph.Path, len(pairs))
	for _, pr := range pairs {
		out[pr] = []graph.Path{{Vertices: []graph.VertexID{pr.A, pr.B}, Dist: float64(epoch)}}
	}
	return out, hasEpoch && !fs.unpinned, nil
}

// next waits for the next batch to reach the wire.
func (fs *fakeSender) next(t *testing.T) *wireBatch {
	t.Helper()
	select {
	case wb := <-fs.arrived:
		return wb
	case <-time.After(10 * time.Second):
		t.Fatal("no batch reached the wire")
		return nil
	}
}

// await waits for a caller's result.
func await(t *testing.T, ch <-chan Result) Result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("caller never got its result")
		return Result{}
	}
}

func pairsN(n int) []core.PairRequest {
	out := make([]core.PairRequest, n)
	for i := range out {
		out[i] = core.PairRequest{A: graph.VertexID(i), B: graph.VertexID(i + 1)}
	}
	return out
}

// Every submission ships before DoAsyncCtx returns, whatever is already on
// the wire: batch 1 stays held at the gate for the whole test, and each later
// caller's pairs still reach the sender — and come back — on their own batch.
func TestEverySubmissionShipsAtOnce(t *testing.T) {
	fs, b := newGated(t, Options{CacheCapacity: -1})
	first := doAsync(b, pairsN(1), 2, 1, true)
	held := fs.next(t)

	const callers = 3
	for c := 1; c <= callers; c++ {
		// Caller c asks for pairs 2c and 2c+1, which nobody else asks for.
		pairs := pairsN(2*c + 2)[2*c:]
		ch := doAsync(b, pairs, 2, 1, true)
		if got := b.Stats().Batches; got != int64(c+1) {
			t.Fatalf("caller %d returned with %d batches shipped, want %d: its pairs wait behind batch 1", c+1, got, c+1)
		}
		wb := fs.next(t)
		if !slices.Equal(wb.pairs, pairs) {
			t.Fatalf("caller %d's batch carries %v, want %v", c+1, wb.pairs, pairs)
		}
		wb.release <- nil
		if r := await(t, ch); r.Err != nil || len(r.Paths) != 2 {
			t.Fatalf("caller %d: %+v", c+1, r)
		}
	}
	held.release <- nil
	if r := await(t, first); r.Err != nil || len(r.Paths) != 1 {
		t.Fatalf("caller 1: %+v", r)
	}
	st := b.Stats()
	if st.Batches != callers+1 || st.PairsSent != 2*callers+1 || st.DedupHits != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestDedupAcrossCallers(t *testing.T) {
	fs, b := newGated(t, Options{CacheCapacity: -1})
	pr := core.PairRequest{A: 1, B: 2}
	ch1 := doAsync(b, []core.PairRequest{pr}, 2, 3, true)
	held := fs.next(t)
	ch2 := doAsync(b, []core.PairRequest{pr}, 2, 3, true) // attaches to the pair on the wire
	held.release <- nil
	r1, r2 := await(t, ch1), await(t, ch2)
	if r1.Err != nil || r2.Err != nil {
		t.Fatalf("errors: %v %v", r1.Err, r2.Err)
	}
	if len(r1.Paths[pr]) != 1 || len(r2.Paths[pr]) != 1 {
		t.Fatalf("both callers should receive the shared pair result")
	}
	st := b.Stats()
	if st.Batches != 1 || st.PairsSent != 1 || st.DedupHits != 1 {
		t.Errorf("expected the second submission to dedup, stats %+v", st)
	}
}

func TestEpochsNeverShareABatch(t *testing.T) {
	fs, b := newGated(t, Options{CacheCapacity: -1})
	pr := core.PairRequest{A: 4, B: 5}
	ch1 := doAsync(b, []core.PairRequest{pr}, 2, 1, true)
	held := fs.next(t)
	// Both ship while epoch 1's batch is out, in two batches of their own,
	// because their keys differ.
	ch2 := doAsync(b, []core.PairRequest{pr}, 2, 2, true)
	ch3 := doAsync(b, []core.PairRequest{pr}, 2, 0, false) // live weights
	held.release <- nil
	fs.next(t).release <- nil
	fs.next(t).release <- nil
	r1, r2, r3 := await(t, ch1), await(t, ch2), await(t, ch3)
	if r1.Err != nil || r2.Err != nil || r3.Err != nil {
		t.Fatalf("errors: %v %v %v", r1.Err, r2.Err, r3.Err)
	}
	// The sender encodes the epoch in the distance: each request must have
	// been answered by its own epoch's batch.
	if d := r1.Paths[pr][0].Dist; d != 1 {
		t.Errorf("epoch-1 caller served from epoch %v", d)
	}
	if d := r2.Paths[pr][0].Dist; d != 2 {
		t.Errorf("epoch-2 caller served from epoch %v", d)
	}
	st := b.Stats()
	if st.Batches != 3 || st.DedupHits != 0 {
		t.Errorf("mixed-epoch requests must not share batches: %+v", st)
	}
}

func TestEpochPinnedCache(t *testing.T) {
	fs := &fakeSender{}
	b := New(fs.send, Options{})
	defer b.Close()
	pr := core.PairRequest{A: 8, B: 9}
	if _, err := do(b, []core.PairRequest{pr}, 2, 5, true); err != nil {
		t.Fatal(err)
	}
	if _, err := do(b, []core.PairRequest{pr}, 2, 5, true); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.CacheHits != 1 || st.PairsSent != 1 {
		t.Errorf("second same-epoch request should hit the memo: %+v", st)
	}
	// A new epoch must miss: the weights may have changed.
	if _, err := do(b, []core.PairRequest{pr}, 2, 6, true); err != nil {
		t.Fatal(err)
	}
	st = b.Stats()
	if st.CacheHits != 1 || st.PairsSent != 2 {
		t.Errorf("new-epoch request must not reuse the old epoch's answer: %+v", st)
	}
	// Live-weight requests are never cached.
	if _, err := do(b, []core.PairRequest{pr}, 2, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := do(b, []core.PairRequest{pr}, 2, 0, false); err != nil {
		t.Fatal(err)
	}
	st = b.Stats()
	if st.CacheHits != 1 || st.PairsSent != 4 {
		t.Errorf("live-weight requests must bypass the memo: %+v", st)
	}
}

func TestSenderErrorPropagates(t *testing.T) {
	fs, b := newGated(t, Options{})
	ch1 := doAsync(b, pairsN(1), 2, 1, true)
	held := fs.next(t)
	ch2 := doAsync(b, pairsN(1), 2, 1, true) // dedups onto the in-flight pair
	held.release <- errors.New("worker down")
	r1, r2 := await(t, ch1), await(t, ch2)
	if r1.Err == nil || r2.Err == nil {
		t.Fatalf("both callers must see the batch error, got %v / %v", r1.Err, r2.Err)
	}
}

// A panic in the Sender fails the batch it was shipping, not the process: the
// caller gets an error, the wire slot and the in-flight pair are released so
// the next request for the same pair is answered, and Close returns.
func TestSenderPanicFailsOneBatch(t *testing.T) {
	fs := &fakeSender{}
	var panicked atomic.Bool
	b := New(func(ctx context.Context, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) (map[core.PairRequest][]graph.Path, bool, error) {
		if panicked.CompareAndSwap(false, true) {
			panic("search bug")
		}
		return fs.send(ctx, pairs, k, epoch, hasEpoch)
	}, Options{CacheCapacity: -1})
	pr := pairsN(1)
	if r := await(t, doAsync(b, pr, 2, 1, true)); r.Err == nil || !strings.Contains(r.Err.Error(), "rpcbatch: sender panic: search bug") {
		t.Fatalf("panicking batch: err = %v, want the sender panic", r.Err)
	}
	if r := await(t, doAsync(b, pr, 2, 1, true)); r.Err != nil || len(r.Paths) != 1 {
		t.Fatalf("request after the panic: %+v", r)
	}
	if st := b.Stats(); st.Panics != 1 || st.Batches != 2 || st.DedupHits != 0 {
		t.Errorf("stats %+v: want 1 panic over 2 batches, no dedup onto the failed pair", st)
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after a sender panic")
	}
}

func TestUnpinnedAnswersAreNotMemoized(t *testing.T) {
	// A worker that cannot honour the epoch pin (evicted epoch, standalone
	// process) reports pinned=false: its answers must never enter the memo,
	// even with the cache enabled.
	fs := &fakeSender{unpinned: true}
	b := New(fs.send, Options{})
	defer b.Close()
	pr := core.PairRequest{A: 30, B: 31}
	for i := 0; i < 2; i++ {
		if _, err := do(b, []core.PairRequest{pr}, 2, 9, true); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.CacheHits != 0 || st.PairsSent != 2 {
		t.Errorf("unpinned answers must be recomputed every time: %+v", st)
	}
}

// Close with two batches on the wire must deliver every waiter, and only then
// return.
func TestCloseDeliversEveryWaiter(t *testing.T) {
	fs, b := newGated(t, Options{CacheCapacity: -1})
	first := doAsync(b, pairsN(1), 2, 1, true)
	held := fs.next(t)
	later := doAsync(b, pairsN(4)[1:], 2, 1, true)
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	second := fs.next(t)
	if len(second.pairs) != 3 {
		t.Fatalf("second batch shipped %d pairs, want 3", len(second.pairs))
	}
	select {
	case <-closed:
		t.Fatal("Close returned with two batches still on the wire")
	default:
	}
	second.release <- nil
	held.release <- nil
	if r := await(t, first); r.Err != nil || len(r.Paths) != 1 {
		t.Fatalf("in-flight waiter: %+v", r)
	}
	if r := await(t, later); r.Err != nil || len(r.Paths) != 3 {
		t.Fatalf("later waiter: %+v", r)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	if res := await(t, doAsync(b, pairsN(1), 2, 1, true)); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("post-close submissions must fail with ErrClosed, got %v", res.Err)
	}
	st := b.Stats()
	if st.Enqueued != st.PairsSent+st.DedupHits+st.CacheHits {
		t.Errorf("accounting broken: %+v", st)
	}
}

func TestEmptyRequest(t *testing.T) {
	fs := &fakeSender{}
	b := New(fs.send, Options{})
	defer b.Close()
	paths, err := do(b, nil, 2, 1, true)
	if err != nil || len(paths) != 0 {
		t.Fatalf("empty request: %v %v", paths, err)
	}
	if b.Stats().Batches != 0 {
		t.Errorf("empty request must not ship anything")
	}
}

// TestConcurrentAccounting hammers the batcher from many goroutines across
// several epochs and checks the conservation law: every enqueued pair is
// either shipped, deduped onto a pending pair, or answered from the memo.
func TestConcurrentAccounting(t *testing.T) {
	fs := &fakeSender{}
	b := New(fs.send, Options{})
	defer b.Close()
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				var pairs []core.PairRequest
				for j := 0; j < 1+rng.Intn(4); j++ {
					pairs = append(pairs, core.PairRequest{
						A: graph.VertexID(rng.Intn(10)),
						B: graph.VertexID(10 + rng.Intn(10)),
					})
				}
				epoch := uint64(rng.Intn(3))
				paths, err := do(b, pairs, 2, epoch, true)
				if err != nil {
					failures.Add(1)
					return
				}
				for _, pr := range pairs {
					if len(paths[pr]) != 1 || paths[pr][0].Dist != float64(epoch) {
						failures.Add(1)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d callers saw wrong results", failures.Load())
	}
	st := b.Stats()
	if st.Enqueued != st.PairsSent+st.DedupHits+st.CacheHits {
		t.Errorf("accounting broken: enqueued %d != sent %d + dedup %d + cache %d",
			st.Enqueued, st.PairsSent, st.DedupHits, st.CacheHits)
	}
}

// BenchmarkBatcherRound is one provider round as a closed loop of two
// queries pays it: submit a pair, wait for the answer, over a loopback sender
// that answers at once — what remains is the batcher's own dispatch.
func BenchmarkBatcherRound(b *testing.B) {
	fs := &fakeSender{unpinned: true} // nothing memoized: every round ships
	bt := New(fs.send, Options{})
	defer bt.Close()
	b.ReportAllocs()
	b.SetParallelism(1)
	var caller atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		id := graph.VertexID(caller.Add(1) * 1000)
		pairs := []core.PairRequest{{A: id, B: id + 1}}
		for pb.Next() {
			if _, err := do(bt, pairs, 3, 1, true); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
