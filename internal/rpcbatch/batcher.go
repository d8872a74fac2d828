// Package rpcbatch coalesces partial-KSP pair requests from different
// concurrent queries into shared batches, one outbound queue per worker.
//
// The paper's query cost is dominated by the refine step's partial-KSP
// requests to subgraph hosts.  When many queries run concurrently (the serve
// layer's worker pool), shipping every query's pairs alone wastes the wire
// twice:
// every query pays a full RPC per refine iteration, and queries whose
// reference paths overlap recompute identical (s,t) pairs on the workers.  A
// Batcher sits between the engines and one worker's transport and:
//
//   - ships a pair request at once while none of its batches is on the wire,
//     and otherwise lets requests accumulate until an in-flight batch returns
//     (group commit: the wire's own round trip is the coalescing window, so
//     it widens under load and vanishes when idle), the forming batch holds
//     Options.MaxPairs, or it has waited maxAge;
//   - never mixes incompatible requests: batches are keyed by (k, epoch), so
//     a flushed batch is answerable by one worker call and epoch-pinned
//     queries keep snapshot isolation even when different epochs are in
//     flight concurrently;
//   - dedupes identical (s, t, k, epoch) pairs across queries: later
//     requesters attach to the pending pair — buffered or already on the
//     wire — and share its reply instead of re-sending it.
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/graph"
	"kspdg/internal/trace"
)

// Sender ships one coalesced batch to a worker and returns the partial paths
// per pair, plus whether the worker honoured the epoch pin (pinned answers
// were computed from the requested epoch's frozen weights and are therefore
// immutable; only they may enter the memo).  All pairs of a call share k and
// the epoch pin.  The context carries only trace information — the batch
// span of the owning trace (the first traced caller that contributed a pair),
// never request cancellation, since a flushed batch serves waiters from many
// queries.  Senders are invoked from flush goroutines and must be safe for
// concurrent use.
type Sender func(ctx context.Context, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) (paths map[core.PairRequest][]graph.Path, pinned bool, err error)

// maxAge caps how long a forming batch waits behind in-flight ones.  It is a
// backstop, not a tuning knob: the flush rule adapts to the worker's actual
// round trip on its own, and the cap only keeps one slow batch (a heavy pair,
// a reconnect) from holding up unrelated queries for its whole duration.
const maxAge = 200 * time.Microsecond

// Options configures a Batcher.
type Options struct {
	// MaxPairs flushes a batch as soon as it holds this many distinct pairs.
	// Zero means 64.
	MaxPairs int
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
	// per-pair RPC latency histogram.  It runs on the flush goroutine and
	// must be safe for concurrent use and cheap.
	Observe func(pairs int, d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.MaxPairs <= 0 {
		o.MaxPairs = 64
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 4096
	}
	return o
}

// Stats counts the batcher's traffic.
type Stats struct {
	// Batches is the number of flushes (worker calls) issued.
	Batches int64
	// PairsSent is the number of distinct pairs shipped across all batches.
	PairsSent int64
	// Enqueued is the number of pair requests callers submitted.
	Enqueued int64
	// DedupHits counts submitted pairs that attached to an identical pending
	// pair (buffered or in flight) instead of being shipped again.
	DedupHits int64
	// CacheHits counts submitted pairs answered from the epoch-pinned memo.
	CacheHits int64
	// Coalesced counts shipped pairs that travelled in a batch fed by more
	// than one caller — the cross-query sharing the batcher exists for.
	Coalesced int64
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
	s.Coalesced += other.Coalesced
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

// batchKey identifies requests that may share a batch.
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

	// Trace bookkeeping: the caller's coalesce-wait span (nil when the
	// caller is untraced) and what happened to its pairs on the way in.
	span      *trace.Span
	memoHits  int
	dedupHits int
	batchIDs  []uint64
}

// recordBatch notes that one of the waiter's pairs rides batch id (bounded,
// deduplicated — a waiter's pairs usually land in one or two batches).
func (w *waiter) recordBatch(id uint64) {
	if w.span == nil {
		return
	}
	for _, b := range w.batchIDs {
		if b == id {
			return
		}
	}
	if len(w.batchIDs) < 8 {
		w.batchIDs = append(w.batchIDs, id)
	}
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
			w.span.SetAttr("batches", formatIDs(w.batchIDs))
			if w.err != nil {
				w.span.SetAttr("error", w.err.Error())
			}
			w.span.Finish()
		}
		w.done <- Result{Paths: w.paths, Err: w.err} // buffered; never blocks
	}
}

// formatIDs renders a short batch-ID list as "3,4".
func formatIDs(ids []uint64) string {
	if len(ids) == 0 {
		return ""
	}
	s := strconv.FormatUint(ids[0], 10)
	for _, id := range ids[1:] {
		s += "," + strconv.FormatUint(id, 10)
	}
	return s
}

// entry is one pending pair and the waiters sharing its reply.
type entry struct {
	waiters []*waiter
}

// bucket is one forming batch: the distinct pairs buffered for one batchKey
// since the last flush, with the age timer that bounds their wait (nil until
// the bucket has to wait at all).
type bucket struct {
	key     batchKey
	id      uint64 // batch id, for trace attribution
	owner   *trace.Span
	order   []core.PairRequest
	entries map[core.PairRequest]*entry
	callers int
	timer   *time.Timer
}

// Batcher is one worker's outbound pair-request queue.
type Batcher struct {
	send Sender
	opts Options
	// ageCap is maxAge; a field only so that tests of the other flush
	// triggers can take the clock out of the picture.
	ageCap time.Duration

	mu       sync.Mutex
	closed   bool
	onWire   int // batches shipped and not yet answered
	buckets  map[batchKey]*bucket
	inflight map[flightKey]*entry
	cache    map[flightKey][]graph.Path
	flushes  sync.WaitGroup
	batchSeq atomic.Uint64

	batches   atomic.Int64
	pairsSent atomic.Int64
	enqueued  atomic.Int64
	dedup     atomic.Int64
	cacheHits atomic.Int64
	coalesced atomic.Int64
	panics    atomic.Int64
}

// New creates a batcher shipping batches through send.
func New(send Sender, opts Options) *Batcher {
	b := &Batcher{
		send:     send,
		opts:     opts.withDefaults(),
		ageCap:   maxAge,
		buckets:  make(map[batchKey]*bucket),
		inflight: make(map[flightKey]*entry),
	}
	if b.opts.CacheCapacity > 0 {
		b.cache = make(map[flightKey][]graph.Path)
	}
	return b
}

// DoAsyncCtx submits the pairs and returns a buffered channel that receives
// the combined result once every pair has been answered.  The call returns
// immediately; the pairs ride whatever batches their (k, epoch) class flushes
// into.
//
// The context may carry a trace span, which gets a child "rpc_wait" span
// measuring the coalesce wait (submit to last-pair delivery) annotated with
// memo/dedup hits and the batch ids the pairs rode; the first traced caller
// to contribute a pair to a forming batch becomes that batch's trace owner.
// Cancellation is deliberately NOT honoured — a submitted pair may serve
// other queries' waiters.
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
	if b.closed {
		b.mu.Unlock()
		done <- Result{Err: ErrClosed}
		return done
	}
	// missing is preset before any pair resolves so a cache hit on an early
	// pair cannot deliver the waiter while later pairs are still unfiled.
	w.missing = len(distinct)
	contributed := false
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
		bu := b.buckets[bk]
		if bu == nil {
			bu = &bucket{key: bk, id: b.batchSeq.Add(1), entries: make(map[core.PairRequest]*entry)}
			b.buckets[bk] = bu
		}
		if bu.owner == nil {
			bu.owner = w.span
		}
		if !contributed {
			bu.callers++
			contributed = true
		}
		if e, ok := bu.entries[pr]; ok {
			// Identical pair already buffered: share its slot.
			e.waiters = append(e.waiters, w)
			b.dedup.Add(1)
			w.dedupHits++
			w.recordBatch(bu.id)
			continue
		}
		bu.entries[pr] = &entry{waiters: []*waiter{w}}
		bu.order = append(bu.order, pr)
		w.recordBatch(bu.id)
		if len(bu.order) >= b.opts.MaxPairs {
			b.flushLocked(bu)
			contributed = false // pairs beyond MaxPairs start a new bucket
		}
	}
	// An idle link has nothing to coalesce behind: waiting would trade pure
	// latency for nothing, so the bucket ships now.  While a batch is out, the
	// bucket collects whatever arrives until that batch returns (the flush
	// goroutine ships it then) or maxAge passes.
	if bu := b.buckets[bk]; bu != nil {
		if b.onWire == 0 {
			b.flushLocked(bu)
		} else if bu.timer == nil {
			bu.timer = time.AfterFunc(b.ageCap, func() { b.flushAged(bk, bu) })
		}
	}
	b.mu.Unlock()
	return done
}

// flushAged is the timer callback: flush the bucket if it is still forming.
func (b *Batcher) flushAged(bk batchKey, bu *bucket) {
	b.mu.Lock()
	if b.buckets[bk] == bu {
		b.flushLocked(bu)
	}
	b.mu.Unlock()
}

// flushLocked moves a forming bucket onto the wire: its entries become
// in-flight (still dedupable) and a goroutine ships the batch and scatters
// the replies back to every attached waiter.  Callers hold b.mu.
func (b *Batcher) flushLocked(bu *bucket) {
	delete(b.buckets, bu.key)
	if bu.timer != nil {
		bu.timer.Stop()
	}
	b.onWire++
	for _, pr := range bu.order {
		b.inflight[flightKey{pair: pr, batchKey: bu.key}] = bu.entries[pr]
	}
	b.batches.Add(1)
	b.pairsSent.Add(int64(len(bu.order)))
	if bu.callers > 1 {
		b.coalesced.Add(int64(len(bu.order)))
	}
	b.flushes.Add(1)
	bspan := bu.owner.Child("rpc_batch") // nil-safe: nil owner yields nil span
	bspan.SetAttrInt("batch", int64(bu.id))
	bspan.SetAttrInt("pairs", int64(len(bu.order)))
	bspan.SetAttrInt("callers", int64(bu.callers))
	// The sender context carries trace identity only, never cancellation:
	// the batch serves waiters from many queries.
	sctx := trace.NewContext(context.Background(), bspan)
	go func() {
		defer b.flushes.Done()
		var start time.Time
		if b.opts.Observe != nil {
			start = time.Now()
		}
		paths, pinned, err := b.ship(sctx, bu)
		if b.opts.Observe != nil {
			b.opts.Observe(len(bu.order), time.Since(start))
		}
		if err != nil {
			bspan.SetAttr("error", err.Error())
		}
		bspan.Finish()
		b.mu.Lock()
		b.onWire--
		for _, pr := range bu.order {
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
		// What formed while this batch was out has had its coalescing
		// window; it leaves as the next batch.
		b.flushAllLocked()
		b.mu.Unlock()
	}()
}

// ship hands one batch to the Sender.  A panic in the Sender fails this
// batch's pairs like a transport error — the flush goroutine then releases the
// batch's wire slot and in-flight entries as usual — instead of taking the
// process down; the stack is logged once and counted in Stats.Panics.
func (b *Batcher) ship(ctx context.Context, bu *bucket) (paths map[core.PairRequest][]graph.Path, pinned bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			b.panics.Add(1)
			log.Printf("rpcbatch: panic shipping batch %d (%d pairs, k=%d): %v\n%s", bu.id, len(bu.order), bu.key.k, r, debug.Stack())
			paths, pinned, err = nil, false, fmt.Errorf("rpcbatch: sender panic: %v", r)
		}
	}()
	return b.send(ctx, bu.order, bu.key.k, bu.key.epoch, bu.key.hasEpoch)
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

// flushAllLocked ships every forming bucket.  Callers hold b.mu.
func (b *Batcher) flushAllLocked() {
	for _, bu := range b.buckets {
		b.flushLocked(bu)
	}
}

// Close flushes buffered pairs, waits for in-flight batches to resolve, and
// fails later submissions with ErrClosed.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.flushes.Wait()
		return
	}
	b.closed = true
	b.flushAllLocked()
	b.mu.Unlock()
	b.flushes.Wait()
}

// Stats returns a snapshot of the traffic counters.
func (b *Batcher) Stats() Stats {
	return Stats{
		Batches:   b.batches.Load(),
		PairsSent: b.pairsSent.Load(),
		Enqueued:  b.enqueued.Load(),
		DedupHits: b.dedup.Load(),
		CacheHits: b.cacheHits.Load(),
		Coalesced: b.coalesced.Load(),
		Panics:    b.panics.Load(),
	}
}
