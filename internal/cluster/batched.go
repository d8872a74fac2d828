package cluster

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/trace"
)

// Owners is the placement rule of every deployment: subgraph sg is hosted by
// the workers (sg + r) mod numWorkers for the ranks r < min(max(factor, 1),
// numWorkers), listed in rank order.  It is a pure function of its
// arguments, so the master's routing, a worker's ownership at startup and
// the subgraphs a topology batch opens all agree without coordination.
func Owners(sg partition.SubgraphID, numWorkers, factor int) []int {
	ws := make([]int, min(max(factor, 1), numWorkers))
	for r := range ws {
		ws[r] = (int(sg) + r) % numWorkers
	}
	return ws
}

// OwnedBy lists, in ascending order, the subgraphs below numSubgraphs that
// worker w hosts under Owners.
func OwnedBy(w, numSubgraphs, numWorkers, factor int) []partition.SubgraphID {
	var owned []partition.SubgraphID
	for sg := range numSubgraphs {
		if slices.Contains(Owners(partition.SubgraphID(sg), numWorkers, factor), w) {
			owned = append(owned, partition.SubgraphID(sg))
		}
	}
	return owned
}

// tracedSender adapts one worker's partial-KSP call to the rpcbatch transport:
// each batch is stamped with the context's trace identity, runs under an
// "rpc" span naming worker w, and has the worker's execution spans grafted
// back under it.  A reply that does not answer exactly the pairs asked about
// fails the batch.  The returned paths alias the response's decoded arrays
// (see DecodePaths) and must be treated as immutable.
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
		// A reply must answer every pair asked about: a missing pair would
		// read as "no partial paths", which the engine keeps as an answer.
		if n := resp.NumPairs(); n != len(pairs) {
			err := fmt.Errorf("cluster: worker %d answered %d pairs of %d", w, n, len(pairs))
			s.SetAttr("error", err.Error())
			s.Finish()
			return nil, false, err
		}
		s.Finish()
		decoded := resp.DecodePaths()
		out := make(map[core.PairRequest][]graph.Path, len(pairs))
		for i, pr := range pairs {
			out[pr] = decoded[i]
		}
		return out, resp.ServedEpoch, nil
	}
}

// FailoverStats counts the re-routing traffic of a provider.  A share is the
// pairs one refine call routed to one worker; a batch that fails on the wire
// fails every share riding it, so one dead batch counts once per query it
// carried.
type FailoverStats struct {
	// Failovers is the number of shares routed again without their worker
	// after its reply failed.
	Failovers int64
	// HedgedBatches is the number of shares routed again speculatively
	// because their worker had not answered within the hedge delay.
	HedgedBatches int64
	// HedgeWins is the number of hedged shares whose re-routed answer was
	// used.
	HedgeWins int64
	// HedgeDrops is the number of duplicate answers (the loser of a hedge
	// race) that arrived after the race was decided and were discarded.
	HedgeDrops int64
}

// ReplicatedOptions configures a provider built by NewReplicatedProvider.
type ReplicatedOptions struct {
	// Batch configures the per-worker queues (see rpcbatch).  The
	// epoch-pinned pair memo is disabled unless CacheCapacity is explicitly
	// positive, because it is only sound when the workers resolve epoch pins
	// (see NewBatchedRemoteProvider).
	Batch rpcbatch.Options
	// HedgeAfter, when positive and the factor is above 1, routes a share
	// again without its worker once that worker has been silent this long;
	// the first answer wins and the loser's is discarded.  Partial-KSP
	// requests are idempotent reads, so hedging is always safe — it trades
	// duplicate work for tail latency.  Zero disables hedging.
	HedgeAfter time.Duration
	// PingEvery enables background health-check probes of every worker
	// through RemoteWorker.Ping.  Zero leaves failure detection to the data
	// path alone.
	PingEvery time.Duration
}

// BatchedRemoteProvider is the refine-step provider of every deployment with
// workers, in-process or over TCP.  Each pair is routed to one owner (see
// Owners) of each of its common subgraphs in the pinned view's partition, and
// each worker's share rides that worker's rpcbatch queue, which ships it at
// once as one PartialKSPRequest (sharing any identical pair another query
// already has on the wire); the replies are merged per pair.  A health-checked
// Membership tracks which workers are worth sending to.  A share whose
// worker fails is routed again without that worker (failover), and with
// hedging so is a share whose worker is slow; both draw on the other owners,
// so queries keep flowing through the death of a worker as long as every
// subgraph keeps one reachable owner.  At factor 1 a subgraph has one owner,
// the route reads no membership state, and a failed share fails its query.
type BatchedRemoteProvider struct {
	batchers   []*rpcbatch.Batcher
	factor     int
	hedgeAfter time.Duration
	member     *Membership

	failovers atomic.Int64
	hedged    atomic.Int64
	hedgeWins atomic.Int64
	drops     atomic.Int64
	drains    sync.WaitGroup
}

// NewBatchedRemoteProvider builds the factor-1 provider over the given
// worker connections: worker w hosts the subgraphs Owners assigns it at
// factor 1, as `kspd -mode worker -replicas 1` does.
//
// The epoch-pinned pair memo is disabled unless opts.CacheCapacity is set to
// an explicit positive value: memoizing an answer under an epoch is only
// sound when the workers actually resolve epoch pins (Worker.SetViewResolver
// against the master's index).  Standalone worker processes maintain their
// own latest weights and serve those for any pin, so a memo would freeze a
// transiently stale answer for the epoch's whole lifetime instead of the
// transient window the eventually consistent transport already has.  Opt in
// only for deployments whose workers share the master's retained views.
func NewBatchedRemoteProvider(workers []*RemoteWorker, opts rpcbatch.Options) *BatchedRemoteProvider {
	return NewReplicatedProvider(workers, 1, ReplicatedOptions{Batch: opts})
}

// NewReplicatedProvider builds the provider over TCP worker clients at the
// given replication factor.  Worker w must have been started with the
// subgraphs Owners assigns it (OwnedBy) for the same worker count and factor.
func NewReplicatedProvider(workers []*RemoteWorker, factor int, opts ReplicatedOptions) *BatchedRemoteProvider {
	if opts.Batch.CacheCapacity == 0 {
		opts.Batch.CacheCapacity = -1
	}
	calls := make([]func(PartialKSPRequest) (PartialKSPResponse, error), len(workers))
	for i, rw := range workers {
		calls[i] = rw.PartialKSP
	}
	var ping func(int) error
	if opts.PingEvery > 0 {
		ping = func(w int) error { return workers[w].Ping() }
	}
	return newProvider(calls, factor, opts, ping)
}

// newProvider is the transport-agnostic core: one batcher per worker call,
// each call feeding the failure detector.
func newProvider(calls []func(PartialKSPRequest) (PartialKSPResponse, error), factor int, opts ReplicatedOptions, ping func(int) error) *BatchedRemoteProvider {
	p := &BatchedRemoteProvider{
		factor:     min(max(factor, 1), len(calls)),
		hedgeAfter: opts.HedgeAfter,
		member:     NewMembership(len(calls), MembershipOptions{PingEvery: opts.PingEvery, Ping: ping}),
	}
	for w, call := range calls {
		send := tracedSender(w, call)
		p.batchers = append(p.batchers, rpcbatch.New(func(ctx context.Context, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) (map[core.PairRequest][]graph.Path, bool, error) {
			paths, pinned, err := send(ctx, pairs, k, epoch, hasEpoch)
			if err != nil {
				p.member.ReportFailure(w)
			} else {
				p.member.ReportSuccess(w)
			}
			return paths, pinned, err
		}, opts.Batch))
	}
	return p
}

// Membership exposes the provider's failure detector (for /healthz, stats
// and tests).
func (p *BatchedRemoteProvider) Membership() *Membership { return p.member }

// FailoverStats returns the re-routing counters.
func (p *BatchedRemoteProvider) FailoverStats() FailoverStats {
	return FailoverStats{
		Failovers:     p.failovers.Load(),
		HedgedBatches: p.hedged.Load(),
		HedgeWins:     p.hedgeWins.Load(),
		HedgeDrops:    p.drops.Load(),
	}
}

// BatchStats aggregates the traffic counters of the per-worker batchers.
func (p *BatchedRemoteProvider) BatchStats() rpcbatch.Stats {
	var st rpcbatch.Stats
	for _, b := range p.batchers {
		st.Add(b.Stats())
	}
	return st
}

// Close stops the health-check loop, drains and stops the per-worker
// batchers, and waits for any hedge-race losers still in flight.
func (p *BatchedRemoteProvider) Close() {
	p.member.Stop()
	var wg sync.WaitGroup
	for _, b := range p.batchers {
		wg.Add(1)
		go func(b *rpcbatch.Batcher) {
			defer wg.Done()
			b.Close()
		}(b)
	}
	wg.Wait()
	p.drains.Wait()
}

// PartialKSPAsyncCtx implements core.PartialProvider.  The request is pinned
// to iv, which must not be nil (the engine always passes the view it reads):
// its partition routes the pairs, and its epoch keys the batches they ride.
// The context's trace span (if any) owns the rpc_wait, rpc_batch, failover
// and hedge spans the request produces downstream; cancellation is not
// consumed here — the engine already stops between iterations, and shipped
// pairs may serve other queries.
func (p *BatchedRemoteProvider) PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int) <-chan core.AsyncPartialReply {
	out := make(chan core.AsyncPartialReply, 1)
	switch shares, err := p.send(ctx, iv, pairs, k, nil); {
	case err != nil:
		out <- core.AsyncPartialReply{Err: err}
	case len(shares) == 0:
		out <- core.AsyncPartialReply{Paths: p.collect(ctx, iv, pairs, k, nil, nil).Paths}
	default:
		go func() {
			res := p.collect(ctx, iv, pairs, k, shares, nil)
			out <- core.AsyncPartialReply{Paths: res.Paths, Err: res.Err}
		}()
	}
	return out
}

// share is the pairs of one refine call routed to one worker, and the
// channel its batcher answers on.
type share struct {
	worker int
	pairs  []core.PairRequest
	reply  <-chan rpcbatch.Result
}

// refine routes the pairs around the excluded workers and collects the
// answers.
func (p *BatchedRemoteProvider) refine(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int, excluded map[int]bool) rpcbatch.Result {
	shares, err := p.send(ctx, iv, pairs, k, excluded)
	if err != nil {
		return rpcbatch.Result{Err: err}
	}
	return p.collect(ctx, iv, pairs, k, shares, excluded)
}

// collect waits for every share and merges the answers per pair; every pair
// has an entry.
func (p *BatchedRemoteProvider) collect(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int, shares []share, excluded map[int]bool) rpcbatch.Result {
	merged := make(map[core.PairRequest][]graph.Path, len(pairs))
	for _, pr := range pairs {
		merged[pr] = nil
	}
	for _, sh := range shares {
		res := p.await(ctx, iv, sh, k, excluded)
		if res.Err != nil {
			return res
		}
		for _, pr := range sh.pairs {
			merged[pr] = append(merged[pr], res.Paths[pr]...)
		}
	}
	for pr, paths := range merged {
		if len(paths) > 0 {
			merged[pr] = core.MergePaths(paths, k)
		}
	}
	return rpcbatch.Result{Paths: merged}
}

// send routes every pair to one owner of each of its common subgraphs in
// iv's partition and queues each worker's share on its batcher.  An owner is
// picked in rank order among the workers not excluded: the first Up one,
// else the first Suspect one, else the first Down one — fresh traffic keeps
// probing a Down worker, which is how a rebooted worker rejoins even without
// pings.  A subgraph whose owners are all excluded fails the call.
func (p *BatchedRemoteProvider) send(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int, excluded map[int]bool) ([]share, error) {
	var states []WorkerState
	if p.factor > 1 {
		states = p.member.Snapshot()
	}
	part := iv.Partition()
	perWorker := make([][]core.PairRequest, len(p.batchers))
	for _, pr := range pairs {
		for _, sg := range part.CommonSubgraphs(pr.A, pr.B) {
			w := pick(Owners(sg, len(p.batchers), p.factor), states, excluded)
			if w < 0 {
				return nil, fmt.Errorf("cluster: all %d replicas of subgraph %d are unreachable", p.factor, sg)
			}
			// A pair's subgraphs are visited together, so a pair already
			// routed to w is w's last pair.
			if prs := perWorker[w]; len(prs) == 0 || prs[len(prs)-1] != pr {
				perWorker[w] = append(prs, pr)
			}
		}
	}
	var shares []share
	for w, prs := range perWorker {
		if len(prs) > 0 {
			shares = append(shares, share{worker: w, pairs: prs, reply: p.batchers[w].DoAsyncCtx(ctx, prs, k, iv.Epoch(), true)})
		}
	}
	return shares, nil
}

// pick returns the first owner, in rank order, not excluded and in the best
// state, or -1 when every owner is excluded.  states is nil at factor 1,
// where the one owner is picked without reading membership.
func pick(owners []int, states []WorkerState, excluded map[int]bool) int {
	for _, want := range [...]WorkerState{StateUp, StateSuspect, StateDown} {
		for _, w := range owners {
			if !excluded[w] && (states == nil || states[w] == want) {
				return w
			}
		}
	}
	return -1
}

// await returns a share's answer: its worker's own or, when that fails, the
// answer to the same pairs routed again without the worker (the failover
// leg).  With hedging, a worker silent past the hedge delay races such a
// re-route, and the first answer wins.
func (p *BatchedRemoteProvider) await(ctx context.Context, iv *dtlp.IndexView, sh share, k int, excluded map[int]bool) rpcbatch.Result {
	res := p.race(ctx, iv, sh, k, excluded)
	if res.Err == nil {
		return res
	}
	p.failovers.Add(1)
	fspan, fctx := trace.StartSpan(ctx, "failover")
	fspan.SetAttrInt("failed_worker", int64(sh.worker))
	fspan.SetAttr("cause", res.Err.Error())
	fspan.Trace().MarkFailedOver()
	re := p.refine(fctx, iv, sh.pairs, k, without(excluded, sh.worker))
	if re.Err != nil {
		fspan.SetAttr("error", re.Err.Error())
		re.Err = fmt.Errorf("%w (failing over from worker %d: %v)", re.Err, sh.worker, res.Err)
	}
	fspan.Finish()
	return re
}

// race waits for the share's worker, hedging when enabled.  The loser of a
// decided race is drained in the background, so its late answer is counted
// and no goroutine leaks.
func (p *BatchedRemoteProvider) race(ctx context.Context, iv *dtlp.IndexView, sh share, k int, excluded map[int]bool) rpcbatch.Result {
	if p.hedgeAfter <= 0 || p.factor < 2 {
		return <-sh.reply
	}
	timer := time.NewTimer(p.hedgeAfter)
	defer timer.Stop()
	select {
	case res := <-sh.reply:
		return res
	case <-timer.C:
	}
	p.hedged.Add(1)
	hedge := make(chan rpcbatch.Result, 1)
	go func() {
		hspan, hctx := trace.StartSpan(ctx, "hedge")
		hspan.SetAttrInt("primary", int64(sh.worker))
		res := p.refine(hctx, iv, sh.pairs, k, without(excluded, sh.worker))
		if res.Err != nil {
			hspan.SetAttr("error", res.Err.Error())
		}
		hspan.Finish()
		hedge <- res
	}()
	select {
	case res := <-sh.reply:
		if res.Err == nil {
			p.drain(hedge)
			return res
		}
		// The slow worker turned out to be a dead one; the hedge in flight
		// doubles as the failover attempt.
		if h := <-hedge; h.Err == nil {
			p.hedgeWins.Add(1)
			return h
		}
		return res
	case h := <-hedge:
		if h.Err == nil {
			p.hedgeWins.Add(1)
			p.drain(sh.reply)
			return h
		}
		return <-sh.reply
	}
}

// drain consumes the losing side of a decided hedge race, counting its
// answer as dropped.
func (p *BatchedRemoteProvider) drain(ch <-chan rpcbatch.Result) {
	p.drains.Add(1)
	go func() {
		defer p.drains.Done()
		if res := <-ch; res.Err == nil {
			p.drops.Add(1)
		}
	}()
}

// without returns a copy of excluded that also excludes worker w.
func without(excluded map[int]bool, w int) map[int]bool {
	out := maps.Clone(excluded)
	if out == nil {
		out = make(map[int]bool, 1)
	}
	out[w] = true
	return out
}
