// Package rpcbatch is the refine step's outbound pair-request queue to one
// worker, shared by every concurrent query.
//
// The paper's query cost is dominated by the refine step's partial-KSP
// requests to subgraph hosts, so a round should cost one round trip and no
// more.  A Batcher sits between the engines and one worker's transport and:
//
//   - ships each DoAsyncCtx call's pairs as one batch before the call
//     returns: nothing waits behind a batch already on the wire, because the
//     transport carries any number of batches to one worker at once;
//   - never mixes incompatible requests: a batch carries one (k, epoch), so it
//     is answerable by one worker call and epoch-pinned queries keep snapshot
//     isolation even when different epochs are in flight concurrently;
//   - dedupes identical (s, t, k, epoch) pairs across queries: a later
//     requester attaches to the pair already on the wire and shares its reply
//     instead of re-sending it;
//   - replays answers the worker froze at an epoch from a bounded memo.
//
// The batcher is transport-agnostic: the in-process cluster and the TCP
// RemoteWorker both plug in through the Sender callback.
package rpcbatch

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/graph"
	"kspdg/internal/trace"
)

// Sender ships one batch to a worker and returns the partial paths per pair,
// plus whether the worker honoured the epoch pin (pinned answers were
// computed from the requested epoch's frozen weights and are therefore
// immutable; only they may enter the memo).  All pairs of a call share k and
// the epoch pin.  The context carries only trace information — the batch
// span of the submitting caller — never request cancellation, since pairs on
// the wire may serve waiters from other queries.  Senders are invoked from
// one goroutine per batch and must be safe for concurrent use.
type Sender func(ctx context.Context, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) (paths map[core.PairRequest][]graph.Path, pinned bool, err error)

// Options configures a Batcher.
type Options struct {
	// CacheCapacity bounds the memo of answered epoch-pinned pairs.  A pair
	// result pinned to an epoch is immutable — the epoch's weights are frozen
	// — so it can be replayed to any later query at the same epoch, extending
	// the cross-query dedup from concurrently-pending pairs to the whole
	// lifetime of an epoch.  Requests without an epoch pin (latest weights)
	// are never cached.  Zero means 4096; negative disables.
	CacheCapacity int
	// Observe, when non-nil, is called once per shipped batch with the
	// number of pairs it carried and the round-trip latency of the worker
	// call (successful or not).  The serve layer uses it to feed the
	// per-pair RPC latency histogram.  It runs on the batch's goroutine and
	// must be safe for concurrent use and cheap.
	Observe func(pairs int, d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 4096
	}
	return o
}

// Stats counts the batcher's traffic.
type Stats struct {
	// Batches is the number of batches (worker calls) shipped.
	Batches int64
	// PairsSent is the number of distinct pairs shipped across all batches.
	PairsSent int64
	// Enqueued is the number of pair requests callers submitted.
	Enqueued int64
	// DedupHits counts submitted pairs that attached to an identical pair
	// already on the wire instead of being shipped again.
	DedupHits int64
	// CacheHits counts submitted pairs answered from the epoch-pinned memo.
	CacheHits int64
	// Panics counts batches failed by a panic in the Sender (see ship); the
	// stack of each is in the process log.
	Panics int64
}

// Add accumulates other into s (for aggregating per-worker batchers).
func (s *Stats) Add(other Stats) {
	s.Batches += other.Batches
	s.PairsSent += other.PairsSent
	s.Enqueued += other.Enqueued
	s.DedupHits += other.DedupHits
	s.CacheHits += other.CacheHits
	s.Panics += other.Panics
}

// Result is the outcome of one DoAsyncCtx call: the partial paths for every
// requested pair, or the first transport error that hit one of its batches.
type Result struct {
	Paths map[core.PairRequest][]graph.Path
	Err   error
}

// ErrClosed fails requests submitted after Close.
var ErrClosed = errors.New("rpcbatch: batcher closed")

// batchKey identifies requests that one worker call can answer together.
type batchKey struct {
	k        int
	epoch    uint64
	hasEpoch bool
}

// flightKey identifies one dedupable pending pair.
type flightKey struct {
	pair core.PairRequest
	batchKey
}

// waiter is one DoAsyncCtx call awaiting its pairs.
type waiter struct {
	missing int
	paths   map[core.PairRequest][]graph.Path
	err     error
	done    chan Result

	// Trace bookkeeping: the caller's rpc_wait span (nil when the caller is
	// untraced) and what happened to its pairs on the way in.  The batch its
	// own pairs rode is the span's rpc_batch child.
	span      *trace.Span
	memoHits  int
	dedupHits int
}

// resolvePairLocked records one pair outcome for a waiter, delivering the
// combined result once the last pair lands.  Callers hold b.mu.
func (b *Batcher) resolvePairLocked(w *waiter, pr core.PairRequest, paths []graph.Path, err error) {
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else {
		w.paths[pr] = paths
	}
	w.missing--
	if w.missing == 0 {
		if w.span != nil {
			w.span.SetAttrInt("memo_hits", int64(w.memoHits))
			w.span.SetAttrInt("dedup_hits", int64(w.dedupHits))
			if w.err != nil {
				w.span.SetAttr("error", w.err.Error())
			}
			w.span.Finish()
		}
		w.done <- Result{Paths: w.paths, Err: w.err} // buffered; never blocks
	}
}

// entry is one pair on the wire and the waiters sharing its reply.
type entry struct {
	waiters []*waiter
}

// batch is one caller's share on its way to the worker: the distinct pairs
// of one DoAsyncCtx call that neither the memo nor a pair already on the wire
// could answer.
type batch struct {
	key   batchKey
	id    int64 // ship order, for the trace and the log
	pairs []core.PairRequest
}

// Batcher is one worker's outbound pair-request queue.
type Batcher struct {
	send Sender
	opts Options

	mu       sync.Mutex
	closed   bool
	inflight map[flightKey]*entry
	cache    map[flightKey][]graph.Path
	shipping sync.WaitGroup

	batches   atomic.Int64
	pairsSent atomic.Int64
	enqueued  atomic.Int64
	dedup     atomic.Int64
	cacheHits atomic.Int64
	panics    atomic.Int64
}

// New creates a batcher shipping batches through send.
func New(send Sender, opts Options) *Batcher {
	b := &Batcher{
		send:     send,
		opts:     opts.withDefaults(),
		inflight: make(map[flightKey]*entry),
	}
	if b.opts.CacheCapacity > 0 {
		b.cache = make(map[flightKey][]graph.Path)
	}
	return b
}

// DoAsyncCtx submits the pairs and returns a buffered channel that receives
// the combined result once every pair has been answered.  The pairs that no
// memo entry or pending pair answers are on their way to the worker, as one
// batch, by the time the call returns.
//
// The context may carry a trace span, which gets a child "rpc_wait" span
// measuring the wait (submit to last-pair delivery) annotated with memo/dedup
// hits, and the shipped batch's "rpc_batch" span hangs off that.  Cancellation is deliberately NOT honoured — a
// submitted pair may serve other queries' waiters.
func (b *Batcher) DoAsyncCtx(ctx context.Context, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) <-chan Result {
	done := make(chan Result, 1)
	if len(pairs) == 0 {
		done <- Result{Paths: make(map[core.PairRequest][]graph.Path)}
		return done
	}
	w := &waiter{paths: make(map[core.PairRequest][]graph.Path, len(pairs)), done: done}
	if s := trace.FromContext(ctx); s != nil {
		w.span = s.Child("rpc_wait")
		w.span.SetAttrInt("pairs", int64(len(pairs)))
	}
	bk := batchKey{k: k, epoch: epoch, hasEpoch: hasEpoch}
	distinct := pairs[:0:0]
	seen := make(map[core.PairRequest]bool, len(pairs))
	for _, pr := range pairs {
		if !seen[pr] {
			seen[pr] = true
			distinct = append(distinct, pr)
		}
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		done <- Result{Err: ErrClosed}
		return done
	}
	// missing is preset before any pair resolves so a cache hit on an early
	// pair cannot deliver the waiter while later pairs are still unfiled.
	w.missing = len(distinct)
	var bu *batch
	for _, pr := range distinct {
		b.enqueued.Add(1)
		fk := flightKey{pair: pr, batchKey: bk}
		if hasEpoch && b.cache != nil {
			if paths, ok := b.cache[fk]; ok {
				// Epoch-pinned answer already known: replay it.
				b.cacheHits.Add(1)
				w.memoHits++
				b.resolvePairLocked(w, pr, paths, nil)
				continue
			}
		}
		if e, ok := b.inflight[fk]; ok {
			// Identical pair already on the wire: share its reply.
			e.waiters = append(e.waiters, w)
			b.dedup.Add(1)
			w.dedupHits++
			continue
		}
		if bu == nil {
			bu = &batch{key: bk, id: b.batches.Add(1)}
		}
		b.inflight[fk] = &entry{waiters: []*waiter{w}}
		bu.pairs = append(bu.pairs, pr)
	}
	if bu != nil {
		b.shipLocked(bu, w.span)
	}
	return done
}

// shipLocked puts a batch on the wire: a goroutine ships it and scatters the
// replies to every waiter attached to its pairs.  Callers hold b.mu, and have
// filed the batch's pairs as in flight.
func (b *Batcher) shipLocked(bu *batch, owner *trace.Span) {
	b.pairsSent.Add(int64(len(bu.pairs)))
	b.shipping.Add(1)
	bspan := owner.Child("rpc_batch") // nil-safe: nil owner yields nil span
	bspan.SetAttrInt("batch", bu.id)
	bspan.SetAttrInt("pairs", int64(len(bu.pairs)))
	// The sender context carries trace identity only, never cancellation:
	// the pairs may serve waiters from other queries.
	sctx := trace.NewContext(context.Background(), bspan)
	go func() {
		defer b.shipping.Done()
		var start time.Time
		if b.opts.Observe != nil {
			start = time.Now()
		}
		paths, pinned, err := b.ship(sctx, bu)
		if b.opts.Observe != nil {
			b.opts.Observe(len(bu.pairs), time.Since(start))
		}
		if err != nil {
			bspan.SetAttr("error", err.Error())
		}
		bspan.Finish()
		b.mu.Lock()
		defer b.mu.Unlock()
		for _, pr := range bu.pairs {
			fk := flightKey{pair: pr, batchKey: bu.key}
			// Only answers the worker actually froze at the requested epoch
			// are immutable; unpinned fallbacks (evicted epochs, standalone
			// workers) must not be memoized as if they were.
			if err == nil && pinned && bu.key.hasEpoch && b.cache != nil {
				b.cacheStoreLocked(fk, paths[pr])
			}
			e := b.inflight[fk]
			delete(b.inflight, fk)
			for _, w := range e.waiters {
				if err != nil {
					b.resolvePairLocked(w, pr, nil, err)
				} else {
					b.resolvePairLocked(w, pr, paths[pr], nil)
				}
			}
		}
	}()
}

// ship hands one batch to the Sender.  A panic in the Sender fails this
// batch's pairs like a transport error — the batch's goroutine then releases
// its in-flight entries as usual — instead of taking the process down; the
// stack is logged once and counted in Stats.Panics.
func (b *Batcher) ship(ctx context.Context, bu *batch) (paths map[core.PairRequest][]graph.Path, pinned bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			b.panics.Add(1)
			log.Printf("rpcbatch: panic shipping batch %d (%d pairs, k=%d): %v\n%s", bu.id, len(bu.pairs), bu.key.k, r, debug.Stack())
			paths, pinned, err = nil, false, fmt.Errorf("rpcbatch: sender panic: %v", r)
		}
	}()
	return b.send(ctx, bu.pairs, bu.key.k, bu.key.epoch, bu.key.hasEpoch)
}

// cacheStoreLocked memoizes one answered epoch-pinned pair, evicting pairs
// from other (superseded or not-yet-reached) epochs first when the capacity
// bound is hit, then falling back to clearing the memo.  Callers hold b.mu.
func (b *Batcher) cacheStoreLocked(fk flightKey, paths []graph.Path) {
	if len(b.cache) >= b.opts.CacheCapacity {
		for old := range b.cache {
			if old.epoch != fk.epoch {
				delete(b.cache, old)
			}
		}
		if len(b.cache) >= b.opts.CacheCapacity {
			b.cache = make(map[flightKey][]graph.Path)
		}
	}
	b.cache[fk] = paths
}

// Close waits for the batches on the wire to resolve, and fails later
// submissions with ErrClosed.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.shipping.Wait()
}

// Stats returns a snapshot of the traffic counters.
func (b *Batcher) Stats() Stats {
	return Stats{
		Batches:   b.batches.Load(),
		PairsSent: b.pairsSent.Load(),
		Enqueued:  b.enqueued.Load(),
		DedupHits: b.dedup.Load(),
		CacheHits: b.cacheHits.Load(),
		Panics:    b.panics.Load(),
	}
}
