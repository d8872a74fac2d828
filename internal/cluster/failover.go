package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/trace"
)

// partialCaller is the transport a replicated provider dispatches batches
// through.  *RemoteWorker implements it; tests substitute in-process fakes to
// drive failure and latency scenarios deterministically.
type partialCaller interface {
	PartialKSP(req PartialKSPRequest) (PartialKSPResponse, error)
}

// FailoverStats counts the replica-routing traffic of a replicated provider.
type FailoverStats struct {
	// Failovers is the number of batches re-dispatched to replicas after
	// their primary worker's send failed.
	Failovers int64
	// HedgedBatches is the number of speculative replica dispatches fired
	// because the primary had not answered within the hedge delay.
	HedgedBatches int64
	// HedgeWins is the number of hedged dispatches whose answer was used
	// because it arrived before the primary's.
	HedgeWins int64
	// HedgeDrops is the number of duplicate replies (the loser of a hedge
	// race) that arrived after the race was decided and were discarded.
	HedgeDrops int64
}

// Add accumulates other into s.
func (s *FailoverStats) Add(other FailoverStats) {
	s.Failovers += other.Failovers
	s.HedgedBatches += other.HedgedBatches
	s.HedgeWins += other.HedgeWins
	s.HedgeDrops += other.HedgeDrops
}

// ReplicatedOptions configures a replicated remote provider.
type ReplicatedOptions struct {
	// Batch tunes the per-worker cross-query coalescing (see rpcbatch).  The
	// epoch-pinned pair memo follows the NewBatchedRemoteProvider convention:
	// disabled unless CacheCapacity is explicitly positive, because it is only
	// sound when the workers resolve epoch pins.
	Batch rpcbatch.Options
	// HedgeAfter, when positive, fires a speculative duplicate of a batch at
	// replica workers once the primary has been silent this long; the first
	// answer wins and the loser's reply is discarded.  Partial-KSP requests
	// are idempotent reads, so hedging is always safe — it trades duplicate
	// work for tail latency.  Zero disables hedging.
	HedgeAfter time.Duration
	// SuspectAfter and DownAfter are the membership thresholds (see
	// MembershipOptions).
	SuspectAfter, DownAfter int
	// PingEvery enables background health-check probes of every worker
	// through RemoteWorker.Ping.  Zero leaves failure detection to the data
	// path alone.
	PingEvery time.Duration
}

// ReplicatedRemoteProvider is the fault-tolerant batched refine-step
// provider: every subgraph is hosted by an ordered set of workers (the
// ReplicaTable), a health-checked Membership tracks which workers are worth
// sending to, and each coalesced batch is dispatched primary-first with
// failover — and optionally hedging — to the replicas.  Queries keep flowing
// through the death of any worker as long as every subgraph retains one
// reachable replica.
type ReplicatedRemoteProvider struct {
	*batchedProvider
	calls  []rpcbatch.Sender // one traced transport call per worker
	part   *partition.Partition
	table  *ReplicaTable
	member *Membership
	opts   ReplicatedOptions

	failovers atomic.Int64
	hedged    atomic.Int64
	hedgeWins atomic.Int64
	drops     atomic.Int64
	drains    sync.WaitGroup
}

// NewReplicatedRemoteProvider builds the provider over TCP worker clients.
// The caller must have started each worker with the partition set the table
// assigns it (ReplicaTable.OwnedBy) — both sides derive the same table from
// the shared partition, worker count and replication factor.
func NewReplicatedRemoteProvider(workers []*RemoteWorker, part *partition.Partition, table *ReplicaTable, opts ReplicatedOptions) (*ReplicatedRemoteProvider, error) {
	if len(workers) != table.NumWorkers() {
		return nil, fmt.Errorf("cluster: %d worker clients for a %d-worker replica table", len(workers), table.NumWorkers())
	}
	callers := make([]partialCaller, len(workers))
	for i, rw := range workers {
		callers[i] = rw
	}
	var ping func(int) error
	if opts.PingEvery > 0 {
		ping = func(w int) error { return workers[w].Ping() }
	}
	return newReplicatedProvider(callers, part, table, opts, ping), nil
}

// newReplicatedProvider is the transport-agnostic core, shared with tests.
func newReplicatedProvider(callers []partialCaller, part *partition.Partition, table *ReplicaTable, opts ReplicatedOptions, ping func(int) error) *ReplicatedRemoteProvider {
	if opts.Batch.CacheCapacity == 0 {
		opts.Batch.CacheCapacity = -1
	}
	rp := &ReplicatedRemoteProvider{
		part:  part,
		table: table,
		opts:  opts,
	}
	rp.member = NewMembership(len(callers), MembershipOptions{
		SuspectAfter: opts.SuspectAfter,
		DownAfter:    opts.DownAfter,
		PingEvery:    opts.PingEvery,
		Ping:         ping,
	})
	senders := make([]rpcbatch.Sender, len(callers))
	for w, c := range callers {
		rp.calls = append(rp.calls, tracedSender(w, c.PartialKSP))
		senders[w] = rp.sender(w)
	}
	rp.batchedProvider = newBatchedProvider(senders, rp.route, opts.Batch)
	return rp
}

// Membership exposes the provider's failure detector (for stats and tests).
func (rp *ReplicatedRemoteProvider) Membership() *Membership { return rp.member }

// Table returns the provider's replica table.
func (rp *ReplicatedRemoteProvider) Table() *ReplicaTable { return rp.table }

// FailoverStats returns the replica-routing counters.
func (rp *ReplicatedRemoteProvider) FailoverStats() FailoverStats {
	return FailoverStats{
		Failovers:     rp.failovers.Load(),
		HedgedBatches: rp.hedged.Load(),
		HedgeWins:     rp.hedgeWins.Load(),
		HedgeDrops:    rp.drops.Load(),
	}
}

// Close stops the health-check loop, flushes the batchers and waits for any
// hedge-race losers still in flight.
func (rp *ReplicatedRemoteProvider) Close() {
	rp.member.Stop()
	rp.batchedProvider.Close()
	rp.drains.Wait()
}

// route picks the dispatch target for every common subgraph of a pair:
// the first Up replica in table order (so the primary while it is healthy),
// else the first merely-Suspect one, else the primary regardless — fresh
// traffic keeps probing a Down primary, which is how a rebooted worker
// rejoins even without background pings.
func (rp *ReplicatedRemoteProvider) route(pr core.PairRequest) []int {
	var ws []int
	seen := make(map[int]bool)
	for _, sg := range rp.part.CommonSubgraphs(pr.A, pr.B) {
		w := rp.pickWorker(rp.table.Replicas(sg))
		if !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	return ws
}

func (rp *ReplicatedRemoteProvider) pickWorker(replicas []int) int {
	for _, w := range replicas {
		if rp.member.State(w) == StateUp {
			return w
		}
	}
	for _, w := range replicas {
		if rp.member.State(w) == StateSuspect {
			return w
		}
	}
	return replicas[0]
}

// pickExcluding is pickWorker restricted to replicas outside excluded, with
// Down workers allowed as a last resort (the alternative is failing the
// query).  ok is false when every replica is excluded.
func (rp *ReplicatedRemoteProvider) pickExcluding(replicas []int, excluded map[int]bool) (int, bool) {
	for _, want := range []WorkerState{StateUp, StateSuspect, StateDown} {
		for _, w := range replicas {
			if !excluded[w] && rp.member.State(w) == want {
				return w, true
			}
		}
	}
	return 0, false
}

// sender adapts worker w to the rpcbatch transport: primary dispatch with
// optional hedging, then failover to replicas if the dispatch failed.
func (rp *ReplicatedRemoteProvider) sender(w int) rpcbatch.Sender {
	return func(ctx context.Context, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) (map[core.PairRequest][]graph.Path, bool, error) {
		paths, pinned, err := rp.dispatch(ctx, w, pairs, k, epoch, hasEpoch)
		if err == nil {
			return paths, pinned, nil
		}
		return rp.failover(ctx, w, pairs, k, epoch, hasEpoch, err)
	}
}

// callWorker performs one traced transport call (see tracedSender) and feeds
// the failure detector.
func (rp *ReplicatedRemoteProvider) callWorker(ctx context.Context, w int, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) (map[core.PairRequest][]graph.Path, bool, error) {
	paths, pinned, err := rp.calls[w](ctx, pairs, k, epoch, hasEpoch)
	if err != nil {
		rp.member.ReportFailure(w)
	} else {
		rp.member.ReportSuccess(w)
	}
	return paths, pinned, err
}

// outcome is one dispatch attempt's result in a hedge race.
type outcome struct {
	paths  map[core.PairRequest][]graph.Path
	pinned bool
	err    error
}

// dispatch sends one batch to worker w.  With hedging enabled it races the
// primary call against a speculative replica dispatch fired after the hedge
// delay; exactly one result is returned to the batcher either way, so batch
// accounting is conserved no matter how many copies eventually answer.
func (rp *ReplicatedRemoteProvider) dispatch(ctx context.Context, w int, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool) (map[core.PairRequest][]graph.Path, bool, error) {
	if rp.opts.HedgeAfter <= 0 || rp.table.Factor() < 2 {
		return rp.callWorker(ctx, w, pairs, k, epoch, hasEpoch)
	}
	primCh := make(chan outcome, 1)
	go func() {
		paths, pinned, err := rp.callWorker(ctx, w, pairs, k, epoch, hasEpoch)
		primCh <- outcome{paths: paths, pinned: pinned, err: err}
	}()
	timer := time.NewTimer(rp.opts.HedgeAfter)
	defer timer.Stop()
	select {
	case o := <-primCh:
		return o.paths, o.pinned, o.err
	case <-timer.C:
	}
	// The primary is past the latency budget: fire the hedge.
	rp.hedged.Add(1)
	hedgeCh := make(chan outcome, 1)
	go func() {
		hspan, hctx := trace.StartSpan(ctx, "hedge")
		hspan.SetAttrInt("primary", int64(w))
		paths, pinned, err := rp.replicaDispatch(hctx, pairs, k, epoch, hasEpoch, map[int]bool{w: true})
		if err != nil {
			hspan.SetAttr("error", err.Error())
		}
		hspan.Finish()
		hedgeCh <- outcome{paths: paths, pinned: pinned, err: err}
	}()
	select {
	case o := <-primCh:
		if o.err == nil {
			rp.drainLoser(hedgeCh)
			return o.paths, o.pinned, nil
		}
		// The slow primary turned out to be a dead one; the in-flight hedge
		// doubles as the failover attempt.
		ho := <-hedgeCh
		if ho.err == nil {
			rp.hedgeWins.Add(1)
		}
		return ho.paths, ho.pinned, ho.err
	case ho := <-hedgeCh:
		if ho.err == nil {
			rp.hedgeWins.Add(1)
			rp.drainLoser(primCh)
			return ho.paths, ho.pinned, nil
		}
		// Hedge failed; the primary may still answer.
		o := <-primCh
		return o.paths, o.pinned, o.err
	}
}

// drainLoser consumes the losing side of a decided hedge race so its late
// reply is observed (and counted) instead of leaking a blocked goroutine.
// The discarded copy never reaches the batcher: accounting stays conserved.
func (rp *ReplicatedRemoteProvider) drainLoser(ch <-chan outcome) {
	rp.drains.Add(1)
	go func() {
		defer rp.drains.Done()
		if o := <-ch; o.err == nil {
			rp.drops.Add(1)
		}
	}()
}

// failover re-dispatches a failed batch onto the replicas: every common
// subgraph of every pair is re-covered by workers other than the failed one,
// workers that fail during the retry are excluded and their pairs re-covered
// again, until everything is answered or some subgraph runs out of replicas —
// which fails the batch with a clear error instead of hanging or silently
// dropping pairs.
func (rp *ReplicatedRemoteProvider) failover(ctx context.Context, failed int, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool, cause error) (map[core.PairRequest][]graph.Path, bool, error) {
	rp.failovers.Add(1)
	fspan, fctx := trace.StartSpan(ctx, "failover")
	fspan.SetAttrInt("failed_worker", int64(failed))
	fspan.SetAttr("cause", cause.Error())
	fspan.Trace().MarkFailedOver()
	paths, pinned, err := rp.replicaDispatch(fctx, pairs, k, epoch, hasEpoch, map[int]bool{failed: true})
	if err != nil {
		fspan.SetAttr("error", err.Error())
		fspan.Finish()
		return nil, false, fmt.Errorf("%w (failing over from worker %d: %v)", err, failed, cause)
	}
	fspan.Finish()
	return paths, pinned, nil
}

// replicaDispatch answers a batch without the excluded workers: it covers the
// pairs' subgraphs with the remaining replicas, calls each chosen worker
// concurrently, and loops re-covering the pairs of any worker that fails
// (excluding it) until the batch is fully answered or coverage is impossible.
func (rp *ReplicatedRemoteProvider) replicaDispatch(ctx context.Context, pairs []core.PairRequest, k int, epoch uint64, hasEpoch bool, excluded map[int]bool) (map[core.PairRequest][]graph.Path, bool, error) {
	merged := make(map[core.PairRequest][]graph.Path, len(pairs))
	for _, pr := range pairs {
		merged[pr] = nil
	}
	pinned := true
	pending := pairs
	for len(pending) > 0 {
		cover, err := rp.cover(pending, excluded)
		if err != nil {
			return nil, false, err
		}
		if len(cover) == 0 {
			break // pairs without common subgraphs: nothing to ask
		}
		type reply struct {
			worker int
			pairs  []core.PairRequest
			paths  map[core.PairRequest][]graph.Path
			pinned bool
			err    error
		}
		replies := make([]reply, 0, len(cover))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for fw, prs := range cover {
			wg.Add(1)
			go func(fw int, prs []core.PairRequest) {
				defer wg.Done()
				paths, pin, err := rp.callWorker(ctx, fw, prs, k, epoch, hasEpoch)
				mu.Lock()
				replies = append(replies, reply{worker: fw, pairs: prs, paths: paths, pinned: pin, err: err})
				mu.Unlock()
			}(fw, prs)
		}
		wg.Wait()
		// A retried pair is re-covered across ALL its common subgraphs, not
		// just the failed worker's share, so a second failure mid-failover
		// can recompute subgraphs that already answered (core.MergePaths
		// dedups them).  Tracking per-(pair, subgraph) coverage would avoid
		// the duplicate work but only pays on the double-failure path.
		retry := make(map[core.PairRequest]bool)
		for _, r := range replies {
			if r.err != nil {
				excluded[r.worker] = true
				for _, pr := range r.pairs {
					retry[pr] = true
				}
				continue
			}
			pinned = pinned && r.pinned
			for _, pr := range r.pairs {
				merged[pr] = append(merged[pr], r.paths[pr]...)
			}
		}
		pending = pending[:0:0]
		for pr := range retry {
			pending = append(pending, pr)
		}
	}
	for pr, ps := range merged {
		if len(ps) > 0 {
			merged[pr] = core.MergePaths(ps, k)
		}
	}
	return merged, pinned, nil
}

// cover picks, for every common subgraph of every pair, a replica outside
// excluded and groups the pairs by chosen worker.  A subgraph whose whole
// replica set is excluded fails the cover with an error naming it.
func (rp *ReplicatedRemoteProvider) cover(pairs []core.PairRequest, excluded map[int]bool) (map[int][]core.PairRequest, error) {
	out := make(map[int][]core.PairRequest)
	for _, pr := range pairs {
		seen := make(map[int]bool)
		for _, sg := range rp.part.CommonSubgraphs(pr.A, pr.B) {
			replicas := rp.table.Replicas(sg)
			w, ok := rp.pickExcluding(replicas, excluded)
			if !ok {
				return nil, fmt.Errorf("cluster: all %d replicas of subgraph %d are unreachable", len(replicas), sg)
			}
			if !seen[w] {
				seen[w] = true
				out[w] = append(out[w], pr)
			}
		}
	}
	return out, nil
}
