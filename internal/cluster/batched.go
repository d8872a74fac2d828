package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
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
		ws[r] = owner(sg, r, numWorkers)
	}
	return ws
}

// owner is the rank-r owner of subgraph sg under Owners.
func owner(sg partition.SubgraphID, r, numWorkers int) int { return (int(sg) + r) % numWorkers }

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
// PartialKSPRequest; the replies are filed into one answer slice aligned
// with the pairs, and the last share to land delivers it.  A health-checked
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
}

// PartialKSPAsyncCtx implements core.PartialProvider.  The request is pinned
// to iv, which must not be nil (the engine always passes the view it reads):
// its partition routes the pairs, and every share carries its epoch.  The
// context's trace span (if any) owns the rpc_wait, failover and hedge spans
// the request produces downstream; cancellation is not consumed here — the
// engine already stops between iterations.
func (p *BatchedRemoteProvider) PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int) <-chan core.AsyncPartialReply {
	return p.start(ctx, iv, pairs, k, nil)
}

// round is one refine call: the answers, aligned with its pairs, that its
// shares file as they land.
type round struct {
	ctx      context.Context
	iv       *dtlp.IndexView
	k        int
	excluded map[int]bool
	out      chan core.AsyncPartialReply // buffered for its one send, so a send never blocks

	mu      sync.Mutex
	paths   [][]graph.Path // nil once an error was delivered
	pending int            // shares not yet filed
}

// share is the pairs of one round routed to one worker, copied out of the
// caller's slice, and their positions in it.
type share struct {
	worker int
	pairs  []core.PairRequest
	pos    []int
}

// start routes the pairs around the excluded workers and ships each share
// on a goroutine of its own.  The returned channel receives the answers
// aligned with pairs, or the first error a share hit.
func (p *BatchedRemoteProvider) start(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int, excluded map[int]bool) <-chan core.AsyncPartialReply {
	r := &round{ctx: ctx, iv: iv, k: k, excluded: excluded, out: make(chan core.AsyncPartialReply, 1), paths: make([][]graph.Path, len(pairs))}
	shares, err := p.route(iv, pairs, excluded)
	if err == nil && len(shares) > 0 {
		p.mu.Lock()
		if p.closed {
			err = errClosed
		} else {
			p.shipping.Add(len(shares))
		}
		p.mu.Unlock()
	}
	switch {
	case err != nil:
		r.out <- core.AsyncPartialReply{Err: err}
	case len(shares) == 0:
		r.out <- core.AsyncPartialReply{Paths: r.paths}
	default:
		r.pending = len(shares)
		p.shipped.Add(int64(len(shares)))
		for _, sh := range shares {
			p.pairsSent.Add(int64(len(sh.pairs)))
			span, _ := trace.StartSpan(ctx, "rpc_wait")
			span.SetAttrInt("pairs", int64(len(sh.pairs)))
			go p.ship(r, sh, span)
		}
	}
	return r.out
}

// route splits the pairs into one share per worker: every pair goes to one
// owner of each of its common subgraphs in iv's partition.  An owner is
// picked in rank order among the workers not excluded: the first Up one,
// else the first Suspect one, else the first Down one — fresh traffic keeps
// probing a Down worker, which is how a rebooted worker rejoins even without
// pings.  A subgraph whose owners are all excluded fails the round.
func (p *BatchedRemoteProvider) route(iv *dtlp.IndexView, pairs []core.PairRequest, excluded map[int]bool) ([]share, error) {
	var states []WorkerState
	if p.factor > 1 {
		states = p.member.Snapshot()
	}
	part := iv.Partition()
	byWorker := make([]share, len(p.calls))
	for i, pr := range pairs {
		inB := part.SubgraphsOf(pr.B)
		for _, sg := range part.SubgraphsOf(pr.A) {
			if !slices.Contains(inB, sg) {
				continue // not one of the pair's common subgraphs
			}
			w := p.pick(sg, states, excluded)
			if w < 0 {
				return nil, fmt.Errorf("cluster: all %d replicas of subgraph %d are unreachable", p.factor, sg)
			}
			// A pair's subgraphs are visited together, so a pair already
			// routed to w is w's last pair.
			if sh := &byWorker[w]; len(sh.pos) == 0 || sh.pos[len(sh.pos)-1] != i {
				sh.worker = w
				sh.pairs = append(sh.pairs, pr)
				sh.pos = append(sh.pos, i)
			}
		}
	}
	return slices.DeleteFunc(byWorker, func(sh share) bool { return len(sh.pos) == 0 }), nil
}

// ship makes one share's worker call and files the answer.  span, the
// context span's "rpc_wait" child, runs from routing to the call's outcome,
// which also feeds the failure detector and Observe.  A failed call that
// decides its share is answered by the failover leg, run here; with hedging,
// a worker silent past the hedge delay races a re-route of the same pairs
// (see race).
func (p *BatchedRemoteProvider) ship(r *round, sh share, span *trace.Span) {
	defer p.shipping.Done()
	var h *race
	if p.hedgeAfter > 0 && p.factor > 1 {
		h = &race{legs: 1}
		defer time.AfterFunc(p.hedgeAfter, func() { p.hedge(r, sh, h) }).Stop()
	}
	start := time.Now()
	paths, err := p.call(trace.NewContext(r.ctx, span), sh.worker, sh.pairs, r.k, r.iv.Epoch())
	if p.observe != nil {
		p.observe(len(sh.pairs), time.Since(start))
	}
	if err != nil {
		p.member.ReportFailure(sh.worker)
		span.SetAttr("error", err.Error())
	} else {
		p.member.ReportSuccess(sh.worker)
	}
	span.Finish()
	if p.decides(r, h, err, false) {
		if err != nil {
			paths, err = p.failover(r, sh, err)
		}
		r.file(sh.pos, paths, err)
	}
}

// call asks worker w for the pairs' partial KSPs pinned to epoch, answered
// in the pairs' order.  The request is stamped with the context's trace
// identity, runs under an "rpc" span naming w, and has the worker's
// execution spans grafted back under it.  A reply that does not answer
// exactly the pairs asked about fails the share, and so does a panic in the
// call: its stack is logged once and counted in BatchStats().Panics.  The
// returned paths alias the response's decoded arrays (see DecodePaths) and
// must be treated as immutable.
func (p *BatchedRemoteProvider) call(ctx context.Context, w int, pairs []core.PairRequest, k int, epoch uint64) (out [][]graph.Path, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			slog.Error("cluster: panic calling worker", "worker", w, "pairs", len(pairs), "k", k, "panic", r, "stack", string(debug.Stack()))
			out, err = nil, fmt.Errorf("cluster: worker %d call panicked: %v", w, r)
		}
	}()
	req := PartialKSPRequest{Pairs: pairs, K: k, Epoch: epoch, HasEpoch: true}
	s, _ := trace.StartSpan(ctx, "rpc")
	s.SetAttrInt("worker", int64(w))
	req.TraceID = s.Trace().ID()
	resp, err := p.calls[w](req)
	if err == nil {
		s.Graft(resp.Spans)
		// A reply must answer every pair asked about: a missing pair would
		// read as "no partial paths", which the engine keeps as an answer.
		if n := resp.NumPairs(); n != len(pairs) {
			err = fmt.Errorf("cluster: worker %d answered %d pairs of %d", w, n, len(pairs))
		}
	}
	if err != nil {
		s.SetAttr("error", err.Error())
		s.Finish()
		return nil, err
	}
	s.Finish()
	return resp.DecodePaths(), nil
}

// pick returns the first owner of sg, in rank order, not excluded and in the
// best state, or -1 when every owner is excluded.  states is nil at factor
// 1, where the one owner is picked without reading membership.
func (p *BatchedRemoteProvider) pick(sg partition.SubgraphID, states []WorkerState, excluded map[int]bool) int {
	for _, want := range [...]WorkerState{StateUp, StateSuspect, StateDown} {
		for r := range p.factor {
			if w := owner(sg, r, len(p.calls)); !excluded[w] && (states == nil || states[w] == want) {
				return w
			}
		}
	}
	return -1
}

// failover answers the pairs of a share whose worker failed with cause: it
// waits for a round of the same pairs routed again without that worker.
func (p *BatchedRemoteProvider) failover(r *round, sh share, cause error) ([][]graph.Path, error) {
	p.failovers.Add(1)
	fspan, _ := trace.StartSpan(r.ctx, "failover")
	fspan.SetAttrInt("failed_worker", int64(sh.worker))
	fspan.SetAttr("cause", cause.Error())
	fspan.Trace().MarkFailedOver()
	re := p.reroute(r, sh, fspan)
	if re.Err != nil {
		re.Err = fmt.Errorf("%w (failing over from worker %d: %v)", re.Err, sh.worker, cause)
	}
	return re.Paths, re.Err
}

// race is a hedged share's race between its worker's own call (the primary
// leg) and a round of the same pairs routed again without that worker (the
// hedge leg), started once the worker has been silent for the hedge delay.
// The fields are guarded by the round's mutex.
type race struct {
	legs     int  // legs still running
	answered bool // the primary returned: no hedge leg starts after it
	decided  bool // a leg's outcome is the share's
}

// hedge runs the hedge leg of a share, unless its primary has already
// answered.  Close waits for it like for a share.
func (p *BatchedRemoteProvider) hedge(r *round, sh share, h *race) {
	r.mu.Lock()
	if h.answered {
		r.mu.Unlock()
		return
	}
	h.legs++
	p.shipping.Add(1) // the primary still holds its count: Close has not returned
	r.mu.Unlock()
	defer p.shipping.Done()
	p.hedged.Add(1)
	hspan, _ := trace.StartSpan(r.ctx, "hedge")
	hspan.SetAttrInt("primary", int64(sh.worker))
	re := p.reroute(r, sh, hspan)
	if p.decides(r, h, re.Err, true) {
		r.file(sh.pos, re.Paths, re.Err)
	}
}

// decides ends one leg of a share and reports whether its outcome is the
// share's: always when the share is not hedged (h nil); otherwise for the
// first success, or for a failure no other leg can still answer — a primary
// failing while the hedge leg runs leaves it to stand in as the failover.
// A success after the share was decided counts as a dropped hedge answer.
func (p *BatchedRemoteProvider) decides(r *round, h *race, err error, hedgeLeg bool) bool {
	if h == nil {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h.legs--
	h.answered = h.answered || !hedgeLeg
	if h.decided && err == nil {
		p.drops.Add(1)
	}
	if h.decided || err != nil && h.legs > 0 {
		return false
	}
	h.decided = true
	if err == nil && hedgeLeg {
		p.hedgeWins.Add(1)
	}
	return true
}

// file records a share's outcome: its answers at the share's positions in
// the round, merged (MergePaths) with what another share already answered
// for the same pair, or its error.  The first error delivers the round at
// once; otherwise the last share to file delivers it.
func (r *round) file(pos []int, paths [][]graph.Path, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending--
	switch {
	case r.paths == nil:
	case err != nil:
		r.paths = nil
		r.out <- core.AsyncPartialReply{Err: err}
	default:
		for j, i := range pos {
			switch {
			case len(paths[j]) == 0:
			case len(r.paths[i]) == 0:
				r.paths[i] = paths[j]
			default:
				r.paths[i] = core.MergePaths(append(slices.Clip(r.paths[i]), paths[j]...), r.k)
			}
		}
		if r.pending == 0 {
			r.out <- core.AsyncPartialReply{Paths: r.paths}
		}
	}
}

// reroute waits, under span, for a round of a share's pairs routed again
// without its worker, and finishes span.
func (p *BatchedRemoteProvider) reroute(r *round, sh share, span *trace.Span) core.AsyncPartialReply {
	excluded := map[int]bool{sh.worker: true}
	maps.Copy(excluded, r.excluded)
	re := <-p.start(trace.NewContext(r.ctx, span), r.iv, sh.pairs, r.k, excluded)
	if re.Err != nil {
		span.SetAttr("error", re.Err.Error())
	}
	span.Finish()
	return re
}
