package cluster

import (
	"context"
	"sync"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/trace"
)

// tracedSender adapts one worker's partial-KSP call to the rpcbatch transport:
// each batch is stamped with the context's trace identity, runs under an
// "rpc" span naming worker w, and has the worker's execution spans grafted
// back under it.  The returned paths alias the response's decoded arrays (see
// DecodePaths) and must be treated as immutable.
func tracedSender(w int, call func(PartialKSPRequest) (PartialKSPResponse, error)) rpcbatch.Sender {
	return func(ctx context.Context, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) (map[core.PairRequest][]graph.Path, bool, error) {
		req := PartialKSPRequest{Pairs: pairs, K: k, Epoch: epoch, HasEpoch: hasEpoch}
		s, _ := trace.StartSpan(ctx, "rpc")
		s.SetAttrInt("worker", int64(w))
		req.TraceID = s.Trace().ID()
		resp, err := call(req)
		if err != nil {
			s.SetAttr("error", err.Error())
			s.Finish()
			return nil, false, err
		}
		s.Graft(resp.Spans)
		s.Finish()
		decoded := resp.DecodePaths()
		out := make(map[core.PairRequest][]graph.Path, len(pairs))
		for i, pr := range pairs[:min(len(pairs), len(decoded))] {
			out[pr] = decoded[i]
		}
		return out, resp.ServedEpoch, nil
	}
}

// batchedProvider is the refine-step provider of every deployment with
// workers: pairs are routed to per-worker rpcbatch queues where they coalesce
// with pairs from other concurrent queries (same k and epoch) before
// travelling as one PartialKSPRequest, and the scattered replies are merged
// per pair.  It implements core.PartialProvider.
type batchedProvider struct {
	batchers []*rpcbatch.Batcher
	// route returns the worker indices that must be asked about a pair.
	route func(pr core.PairRequest) []int
}

// newBatchedProvider builds a provider over one batcher per worker sender.
func newBatchedProvider(senders []rpcbatch.Sender, route func(core.PairRequest) []int, opts rpcbatch.Options) *batchedProvider {
	bp := &batchedProvider{route: route}
	for _, send := range senders {
		bp.batchers = append(bp.batchers, rpcbatch.New(send, opts))
	}
	return bp
}

// PartialKSPAsyncCtx implements core.PartialProvider.  Requests with a view
// are pinned to its epoch and only coalesce with other requests for the same
// epoch.  The context's trace span (if any) owns the coalesce-wait and batch
// spans the request produces downstream; cancellation is not consumed here —
// the engine already stops between iterations, and shipped pairs may serve
// other queries.
func (bp *batchedProvider) PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int) <-chan core.AsyncPartialReply {
	var epoch uint64
	if iv != nil {
		epoch = iv.Epoch()
	}
	out := make(chan core.AsyncPartialReply, 1)
	result := make(map[core.PairRequest][]graph.Path, len(pairs))
	perWorker := make(map[int][]core.PairRequest)
	for _, pr := range pairs {
		result[pr] = nil
		for _, w := range bp.route(pr) {
			perWorker[w] = append(perWorker[w], pr)
		}
	}
	if len(perWorker) == 0 {
		out <- core.AsyncPartialReply{Paths: result}
		return out
	}
	type pendingReply struct {
		pairs []core.PairRequest
		ch    <-chan rpcbatch.Result
	}
	var replies []pendingReply
	for w, prs := range perWorker {
		replies = append(replies, pendingReply{pairs: prs, ch: bp.batchers[w].DoAsyncCtx(ctx, prs, k, epoch, iv != nil)})
	}
	go func() {
		collected := make(map[core.PairRequest][]graph.Path, len(result))
		var firstErr error
		for _, pend := range replies {
			res := <-pend.ch
			if res.Err != nil {
				if firstErr == nil {
					firstErr = res.Err
				}
				continue
			}
			for _, pr := range pend.pairs {
				collected[pr] = append(collected[pr], res.Paths[pr]...)
			}
		}
		if firstErr != nil {
			out <- core.AsyncPartialReply{Err: firstErr}
			return
		}
		for pr, paths := range collected {
			if len(paths) > 0 {
				result[pr] = core.MergePaths(paths, k)
			}
		}
		out <- core.AsyncPartialReply{Paths: result}
	}()
	return out
}

// BatchStats aggregates the traffic counters of the per-worker batchers.
func (bp *batchedProvider) BatchStats() rpcbatch.Stats {
	var st rpcbatch.Stats
	for _, b := range bp.batchers {
		st.Add(b.Stats())
	}
	return st
}

// Close flushes and stops the per-worker batchers.
func (bp *batchedProvider) Close() {
	var wg sync.WaitGroup
	for _, b := range bp.batchers {
		wg.Add(1)
		go func(b *rpcbatch.Batcher) {
			defer wg.Done()
			b.Close()
		}(b)
	}
	wg.Wait()
}

// BatchedRemoteProvider is the refine-step provider over TCP workers: one
// rpcbatch queue per RemoteWorker, with every pair broadcast to all workers —
// each answers for the subgraphs it owns, mirroring how the Storm deployment
// broadcasts the reference path to all SubgraphBolts (Section 6.1, Step 2).
// On top of the multiplexed connections this makes the request path a full
// asynchronous pipeline: concurrent queries' pairs coalesce into shared
// batches, identical pairs are deduplicated, and many batches are in flight
// per worker at once.
type BatchedRemoteProvider struct {
	*batchedProvider
}

// NewBatchedRemoteProvider builds the batched provider over the given worker
// connections.
//
// The epoch-pinned pair memo is disabled unless opts.CacheCapacity is set to
// an explicit positive value: memoizing an answer under an epoch is only
// sound when the workers actually resolve epoch pins (Worker.SetViewResolver
// against the master's index).  Standalone worker processes maintain their
// own live weights and serve those for any pin, so a memo would freeze a
// transiently stale answer for the epoch's whole lifetime instead of the
// transient window the eventually consistent transport already has.  Opt in
// only for deployments whose workers share the master's retained views.
func NewBatchedRemoteProvider(workers []*RemoteWorker, opts rpcbatch.Options) *BatchedRemoteProvider {
	if opts.CacheCapacity == 0 {
		opts.CacheCapacity = -1
	}
	senders := make([]rpcbatch.Sender, len(workers))
	for i, rw := range workers {
		senders[i] = tracedSender(i, rw.PartialKSP)
	}
	all := make([]int, len(workers))
	for i := range all {
		all[i] = i
	}
	route := func(core.PairRequest) []int { return all }
	return &BatchedRemoteProvider{batchedProvider: newBatchedProvider(senders, route, opts)}
}
