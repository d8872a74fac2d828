package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"runtime/debug"
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

// FailoverStats counts the re-routing traffic of a provider.  A share is the
// pairs one refine call routed to one worker, shipped as one worker call.
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
	// Batch carries the per-share Observe hook (see rpcbatch.Options).
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
// each worker's share ships at once, on a goroutine of its own, as one
// PartialKSPRequest; the replies are merged per pair.  A health-checked
// Membership tracks which workers are worth sending to.  A share whose
// worker fails is routed again without that worker (failover), and with
// hedging so is a share whose worker is slow; both draw on the other owners,
// so queries keep flowing through the death of a worker as long as every
// subgraph keeps one reachable owner.  At factor 1 a subgraph has one owner,
// the route reads no membership state, and a failed share fails its query.
type BatchedRemoteProvider struct {
	calls      []func(PartialKSPRequest) (PartialKSPResponse, error)
	observe    func(pairs int, d time.Duration)
	factor     int
	hedgeAfter time.Duration
	member     *Membership

	mu       sync.Mutex // orders Close against shares starting
	closed   bool
	shipping sync.WaitGroup // shares in flight

	shipped   atomic.Int64
	pairsSent atomic.Int64
	panics    atomic.Int64
	failovers atomic.Int64
	hedged    atomic.Int64
	hedgeWins atomic.Int64
	drops     atomic.Int64
	drains    sync.WaitGroup
}

// errClosed fails the shares submitted after Close.
var errClosed = errors.New("cluster: provider closed")

// NewBatchedRemoteProvider builds the factor-1 provider over the given
// worker connections: worker w hosts the subgraphs Owners assigns it at
// factor 1, as `kspd -mode worker -replicas 1` does.
func NewBatchedRemoteProvider(workers []*RemoteWorker, opts rpcbatch.Options) *BatchedRemoteProvider {
	return NewReplicatedProvider(workers, 1, ReplicatedOptions{Batch: opts})
}

// NewReplicatedProvider builds the provider over TCP worker clients at the
// given replication factor.  Worker w must have been started with the
// subgraphs Owners assigns it (OwnedBy) for the same worker count and factor.
func NewReplicatedProvider(workers []*RemoteWorker, factor int, opts ReplicatedOptions) *BatchedRemoteProvider {
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

// newProvider is the transport-agnostic core over one call per worker.
func newProvider(calls []func(PartialKSPRequest) (PartialKSPResponse, error), factor int, opts ReplicatedOptions, ping func(int) error) *BatchedRemoteProvider {
	return &BatchedRemoteProvider{
		calls:      calls,
		observe:    opts.Batch.Observe,
		factor:     min(max(factor, 1), len(calls)),
		hedgeAfter: opts.HedgeAfter,
		member:     NewMembership(len(calls), MembershipOptions{PingEvery: opts.PingEvery, Ping: ping}),
	}
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

// BatchStats returns the traffic counters: Batches counts the shares
// shipped, and Enqueued and PairsSent both count their pairs.
func (p *BatchedRemoteProvider) BatchStats() rpcbatch.Stats {
	pairs := p.pairsSent.Load()
	return rpcbatch.Stats{Batches: p.shipped.Load(), PairsSent: pairs, Enqueued: pairs, Panics: p.panics.Load()}
}

// Close stops the health-check loop, waits for the shares in flight and for
// any hedge-race losers, and fails the shares submitted after it.
func (p *BatchedRemoteProvider) Close() {
	p.member.Stop()
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.shipping.Wait()
	p.drains.Wait()
}

// PartialKSPAsyncCtx implements core.PartialProvider.  The request is pinned
// to iv, which must not be nil (the engine always passes the view it reads):
// its partition routes the pairs, and every share carries its epoch.  The
// context's trace span (if any) owns the rpc_wait, failover and hedge spans
// the request produces downstream; cancellation is not consumed here — the
// engine already stops between iterations.
func (p *BatchedRemoteProvider) PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int) <-chan core.AsyncPartialReply {
	out := make(chan core.AsyncPartialReply, 1)
	switch shares, err := p.send(ctx, iv, pairs, k, nil); {
	case err != nil:
		out <- core.AsyncPartialReply{Err: err}
	case len(shares) == 0:
		out <- core.AsyncPartialReply{Paths: p.collect(ctx, iv, pairs, k, nil, nil).paths}
	default:
		go func() {
			res := p.collect(ctx, iv, pairs, k, shares, nil)
			out <- core.AsyncPartialReply{Paths: res.paths, Err: res.err}
		}()
	}
	return out
}

// result is the outcome of a share or of a refine call: the partial paths
// per pair, or the first error that hit one of its shares.
type result struct {
	paths map[core.PairRequest][]graph.Path
	err   error
}

// share is the pairs of one refine call routed to one worker, and the
// channel its answer arrives on.
type share struct {
	worker int
	pairs  []core.PairRequest
	reply  <-chan result
}

// refine routes the pairs around the excluded workers and collects the
// answers.
func (p *BatchedRemoteProvider) refine(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int, excluded map[int]bool) result {
	shares, err := p.send(ctx, iv, pairs, k, excluded)
	if err != nil {
		return result{err: err}
	}
	return p.collect(ctx, iv, pairs, k, shares, excluded)
}

// collect waits for every share and merges the answers per pair; every pair
// has an entry.
func (p *BatchedRemoteProvider) collect(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int, shares []share, excluded map[int]bool) result {
	merged := make(map[core.PairRequest][]graph.Path, len(pairs))
	for _, pr := range pairs {
		merged[pr] = nil
	}
	for _, sh := range shares {
		res := p.await(ctx, iv, sh, k, excluded)
		if res.err != nil {
			return res
		}
		for _, pr := range sh.pairs {
			merged[pr] = append(merged[pr], res.paths[pr]...)
		}
	}
	for pr, paths := range merged {
		if len(paths) > 0 {
			merged[pr] = core.MergePaths(paths, k)
		}
	}
	return result{paths: merged}
}

// send routes every pair to one owner of each of its common subgraphs in
// iv's partition and ships each worker's share.  An owner is picked in rank
// order among the workers not excluded: the first Up one, else the first
// Suspect one, else the first Down one — fresh traffic keeps probing a Down
// worker, which is how a rebooted worker rejoins even without pings.  A
// subgraph whose owners are all excluded fails the call.
func (p *BatchedRemoteProvider) send(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int, excluded map[int]bool) ([]share, error) {
	var states []WorkerState
	if p.factor > 1 {
		states = p.member.Snapshot()
	}
	part := iv.Partition()
	perWorker := make([][]core.PairRequest, len(p.calls))
	for _, pr := range pairs {
		for _, sg := range part.CommonSubgraphs(pr.A, pr.B) {
			w := pick(Owners(sg, len(p.calls), p.factor), states, excluded)
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
			shares = append(shares, share{worker: w, pairs: prs, reply: p.ship(ctx, w, prs, k, iv.Epoch())})
		}
	}
	return shares, nil
}

// ship puts one share on the wire to worker w, on a goroutine of its own,
// and returns the buffered channel its result arrives on.  The wait, from
// here to delivery, is the context span's "rpc_wait" child.  The worker
// call's outcome feeds the failure detector and Observe.
func (p *BatchedRemoteProvider) ship(ctx context.Context, w int, pairs []core.PairRequest, k int, epoch uint64) <-chan result {
	reply := make(chan result, 1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		reply <- result{err: errClosed}
		return reply
	}
	p.shipping.Add(1)
	p.mu.Unlock()
	p.shipped.Add(1)
	p.pairsSent.Add(int64(len(pairs)))
	span, ctx := trace.StartSpan(ctx, "rpc_wait")
	span.SetAttrInt("pairs", int64(len(pairs)))
	go func() {
		defer p.shipping.Done()
		start := time.Now()
		paths, err := p.call(ctx, w, pairs, k, epoch)
		if p.observe != nil {
			p.observe(len(pairs), time.Since(start))
		}
		if err != nil {
			p.member.ReportFailure(w)
			span.SetAttr("error", err.Error())
		} else {
			p.member.ReportSuccess(w)
		}
		span.Finish()
		reply <- result{paths: paths, err: err}
	}()
	return reply
}

// call asks worker w for the pairs' partial KSPs pinned to epoch.  The
// request is stamped with the context's trace identity, runs under an "rpc"
// span naming w, and has the worker's execution spans grafted back under it.
// A reply that does not answer exactly the pairs asked about fails the
// share, and so does a panic in the call: its stack is logged once and
// counted in BatchStats().Panics.  The returned paths alias the response's
// decoded arrays (see DecodePaths) and must be treated as immutable.
func (p *BatchedRemoteProvider) call(ctx context.Context, w int, pairs []core.PairRequest, k int, epoch uint64) (out map[core.PairRequest][]graph.Path, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			log.Printf("cluster: panic calling worker %d (%d pairs, k=%d): %v\n%s", w, len(pairs), k, r, debug.Stack())
			out, err = nil, fmt.Errorf("cluster: worker %d call panicked: %v", w, r)
		}
	}()
	req := PartialKSPRequest{Pairs: pairs, K: k, Epoch: epoch, HasEpoch: true}
	s, _ := trace.StartSpan(ctx, "rpc")
	s.SetAttrInt("worker", int64(w))
	req.TraceID = s.Trace().ID()
	resp, err := p.calls[w](req)
	if err != nil {
		s.SetAttr("error", err.Error())
		s.Finish()
		return nil, err
	}
	s.Graft(resp.Spans)
	// A reply must answer every pair asked about: a missing pair would read
	// as "no partial paths", which the engine keeps as an answer.
	if n := resp.NumPairs(); n != len(pairs) {
		err := fmt.Errorf("cluster: worker %d answered %d pairs of %d", w, n, len(pairs))
		s.SetAttr("error", err.Error())
		s.Finish()
		return nil, err
	}
	s.Finish()
	decoded := resp.DecodePaths()
	out = make(map[core.PairRequest][]graph.Path, len(pairs))
	for i, pr := range pairs {
		out[pr] = decoded[i]
	}
	return out, nil
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
func (p *BatchedRemoteProvider) await(ctx context.Context, iv *dtlp.IndexView, sh share, k int, excluded map[int]bool) result {
	res := p.race(ctx, iv, sh, k, excluded)
	if res.err == nil {
		return res
	}
	p.failovers.Add(1)
	fspan, fctx := trace.StartSpan(ctx, "failover")
	fspan.SetAttrInt("failed_worker", int64(sh.worker))
	fspan.SetAttr("cause", res.err.Error())
	fspan.Trace().MarkFailedOver()
	re := p.refine(fctx, iv, sh.pairs, k, without(excluded, sh.worker))
	if re.err != nil {
		fspan.SetAttr("error", re.err.Error())
		re.err = fmt.Errorf("%w (failing over from worker %d: %v)", re.err, sh.worker, res.err)
	}
	fspan.Finish()
	return re
}

// race waits for the share's worker, hedging when enabled.  The loser of a
// decided race is drained in the background, so its late answer is counted
// and no goroutine leaks.
func (p *BatchedRemoteProvider) race(ctx context.Context, iv *dtlp.IndexView, sh share, k int, excluded map[int]bool) result {
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
	hedge := make(chan result, 1)
	go func() {
		hspan, hctx := trace.StartSpan(ctx, "hedge")
		hspan.SetAttrInt("primary", int64(sh.worker))
		res := p.refine(hctx, iv, sh.pairs, k, without(excluded, sh.worker))
		if res.err != nil {
			hspan.SetAttr("error", res.err.Error())
		}
		hspan.Finish()
		hedge <- res
	}()
	select {
	case res := <-sh.reply:
		if res.err == nil {
			p.drain(hedge)
			return res
		}
		// The slow worker turned out to be a dead one; the hedge in flight
		// doubles as the failover attempt.
		if h := <-hedge; h.err == nil {
			p.hedgeWins.Add(1)
			return h
		}
		return res
	case h := <-hedge:
		if h.err == nil {
			p.hedgeWins.Add(1)
			p.drain(sh.reply)
			return h
		}
		return <-sh.reply
	}
}

// drain consumes the losing side of a decided hedge race, counting its
// answer as dropped.
func (p *BatchedRemoteProvider) drain(ch <-chan result) {
	p.drains.Add(1)
	go func() {
		defer p.drains.Done()
		if res := <-ch; res.err == nil {
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
