// Package serve is the concurrent, snapshot-isolated query layer on top of
// the KSP-DG engine: the front door a production deployment would expose.
//
// A Server owns the master copy of the road network and its DTLP index and
// separates the two kinds of traffic the paper's system must absorb:
//
//   - Queries run on a bounded worker pool.  Each query is answered against
//     one immutable index epoch (dtlp.IndexView), so an in-flight query never
//     observes a half-applied update batch no matter how many batches land
//     while it runs.  Identical concurrent queries are coalesced, and results
//     are cached per (source, target, k) until the epoch they were computed
//     on is superseded.
//   - Weight and topology batches go through one writer that logs each batch
//     to the write-ahead log, applies it to the index, which writes the master
//     graph and publishes the next epoch atomically, and then broadcasts it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/logx"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/trace"
	"kspdg/internal/workload"
)

// ErrEpochEvicted is returned (wrapped) by Query when a request's Epoch has
// aged out of the index's view retention window.  Serving layers map it to a
// distinct status (the gateway returns 410 Gone).
var ErrEpochEvicted = errors.New("serve: epoch evicted from the retention window")

// ErrInvalidBatch wraps the index's refusal of a write batch — an edge or
// vertex the graph lacks, a repeated delete, an invalid weight — returned
// before anything is logged or applied.  Serving layers map it to a client
// error (the gateway returns 400).
var ErrInvalidBatch = errors.New("serve: batch refused")

// Persister receives durability callbacks from the server's writer path.
// *store.Store implements it; serve depends only on this interface so the
// persistence subsystem stays optional.
type Persister interface {
	// AppendBatch logs one weight batch, before it is applied, under the
	// epoch it will publish.  The writer reuses the epoch after a failed
	// append, and resynchronises the log with SaveSnapshot first.
	AppendBatch(epoch uint64, batch []graph.WeightUpdate) error
	// AppendTopology logs one topology batch, before it is applied, under
	// the epoch it will publish, interleaved with weight batches in epoch
	// order.
	AppendTopology(epoch uint64, up graph.TopologyUpdate) error
	// SaveSnapshot persists the index at its current epoch and returns that
	// epoch.
	SaveSnapshot(index *dtlp.Index) (uint64, error)
}

// Options configures a Server.
type Options struct {
	// Workers is the size of the query worker pool.  Zero means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted queries.
	// Submitting beyond it blocks (backpressure).  Zero means 4*Workers.
	QueueDepth int
	// CacheCapacity bounds the number of cached query results.  Zero means
	// 1024; negative disables caching.
	CacheCapacity int
	// Engine configures the underlying KSP-DG engines.
	Engine core.Options
	// Broadcast, when set, is invoked with each update batch after the index
	// has applied it and published its epoch.  Deployments use it to
	// forward the batch to standalone workers that maintain their own weight
	// copies; its error fails the ApplyUpdates call that triggered it.
	Broadcast func(batch []graph.WeightUpdate) error
	// BroadcastTopology does the same for each applied topology batch; its
	// error fails the ApplyTopology call that triggered it.
	BroadcastTopology func(up graph.TopologyUpdate) error
	// Store, when set, makes every batch durable before it is visible: the
	// writer appends the batch to the write-ahead log under the epoch
	// it will publish before applying it, and a WAL append failure fails the
	// call with nothing applied, published or broadcast.  After such a
	// failure (or an apply that fails once its batch is logged) the writer
	// saves a snapshot, which drops whatever record the refused batch may
	// have left in the log; while that snapshot keeps failing, writes are
	// refused.
	Store Persister
	// SnapshotEvery, when positive together with Store, writes a fresh index
	// snapshot after every SnapshotEvery applied batches, rotating the WAL
	// and bounding recovery replay cost.
	SnapshotEvery int
	// Chaos, when set, executes the fault-injection events of a scenario
	// replayed through RunScenario (kill/restart a worker of the deployment
	// backing the refine provider).  Nil ignores chaos events.
	Chaos func(ev workload.ChaosEvent) error
	// Logger, when set, receives a structured slow-query log line for every
	// non-converged or budget-terminated query, and for every query slower
	// than SlowQueryThreshold.  The line carries the trace id and the
	// per-stage duration breakdown when the query was traced.
	Logger *logx.Logger
	// SlowQueryThreshold is the duration above which a successfully answered
	// query is logged as slow.  Zero disables the duration rule; outliers
	// (non-converged, budget-terminated) are logged regardless.
	SlowQueryThreshold time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 1024
	}
	return o
}

// Stats aggregates a server's scheduling counters.
type Stats struct {
	QueriesServed  int64 // completed queries, including cache hits
	CacheHits      int64 // queries answered from the epoch-tagged cache
	Coalesced      int64 // queries that joined an identical in-flight query
	UpdateBatches  int64 // weight update batches applied
	UpdatesApplied int64 // individual edge updates applied
	Snapshots      int64 // periodic snapshots written through Options.Store
	// TopologyBatches counts applied topology batches (edge/vertex inserts
	// and deletes); SubgraphsRebuilt totals the subgraphs whose bounding
	// paths were re-enumerated across those batches — the cumulative
	// incremental-maintenance cost of the write path.
	TopologyBatches  int64
	SubgraphsRebuilt int64
	// NonConverged counts successfully answered queries whose search was cut
	// off while it still held fewer than k proven candidates: their paths may
	// be silently truncated.  With the adaptive iteration budget in place
	// this should stay at zero in healthy deployments; a nonzero rate means
	// the MaxIterations safety valve fired before k candidates existed.
	NonConverged int64
	// BudgetTerminated counts successfully answered queries the adaptive
	// iteration budget (or the MaxIterations cap) terminated early with a
	// principled near-exact answer: k paths, each within Result.BoundGap of
	// its exact counterpart.  This is the tunable replacement for the old
	// iteration-cap tail — the former multi-minute outliers now land here,
	// bounded by core.Options.StallWindow.
	BudgetTerminated int64
	// MaxBoundGap is the largest Result.BoundGap observed across
	// budget-terminated queries since the server started, i.e. the worst
	// distance overshoot any near-exact answer may have had.
	MaxBoundGap float64
	// Canceled counts queries abandoned before completion because their
	// context was canceled or blew its deadline (including queued queries
	// whose last waiter hung up before a worker picked them up).
	Canceled int64
	// Panics counts panics contained without taking the process down: on a
	// pool worker, which fails one query (see execute), and in the refine
	// transport's batch sender, which fails the queries waiting on that batch
	// (rpcbatch.Stats.Panics).  The stack of each is in the process log.
	Panics int64
	Epoch  uint64
	// RPCBatches and DedupHits mirror the provider's batching counters (see
	// rpcbatch.Stats) when the refine step runs on a batching transport; they
	// stay zero for local providers.
	RPCBatches    int64
	DedupHits     int64
	PairCacheHits int64
	// Failovers, HedgedBatches, HedgeWins and HedgeDrops mirror the
	// provider's re-routing counters (see cluster.FailoverStats) when the
	// refine step runs on workers; they stay zero otherwise.
	Failovers     int64
	HedgedBatches int64
	HedgeWins     int64
	HedgeDrops    int64
}

// batchStatsProvider is implemented by batching refine-step providers (the
// cluster transports) that can report their batching counters.
type batchStatsProvider interface {
	BatchStats() rpcbatch.Stats
}

// failoverStatsProvider is implemented by the worker-backed refine-step
// provider (cluster.BatchedRemoteProvider), which reports its failover
// traffic.
type failoverStatsProvider interface {
	FailoverStats() cluster.FailoverStats
}

// Server schedules concurrent KSP queries and weight updates over one index.
type Server struct {
	index    *dtlp.Index
	engine   *core.Engine
	provider core.PartialProvider
	opts     Options

	tasks   chan *task
	workers sync.WaitGroup
	senders sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	cache    map[queryKey]cacheEntry
	inflight map[queryKey]*call

	// writeMu serializes the whole writer path (index + WAL + broadcast) so
	// WAL records land in exactly the epoch order the index
	// published and periodic snapshots observe a quiescent writer.
	writeMu       sync.Mutex
	sinceSnapshot int
	// logAhead is set while the write-ahead log may hold a batch the index
	// did not apply; every write first retries the snapshot that clears it.
	logAhead bool

	queries          atomic.Int64
	hits             atomic.Int64
	coalesced        atomic.Int64
	batches          atomic.Int64
	updates          atomic.Int64
	topoBatches      atomic.Int64
	subgraphsRebuilt atomic.Int64
	snapshots        atomic.Int64
	nonConverged     atomic.Int64
	budgetTerminated atomic.Int64
	maxBoundGap      atomic.Uint64 // math.Float64bits, monotonic max
	canceled         atomic.Int64
	panics           atomic.Int64
}

type queryKey struct {
	s, t graph.VertexID
	k    int
}

type cacheEntry struct {
	epoch uint64
	res   core.Result
}

// call is one scheduled computation.  Plain queries are shared: concurrent
// identical queries join the same call and its result lands in the cache.
// Epoch-pinned and streaming queries get private calls (pin answers are
// immutable but rare; stream yields belong to one client).
//
// The computation runs under its own context (ctx/cancel), which is canceled
// once every joined waiter has abandoned the call — that is how a dead
// client's deadline propagates into the engine loop and stops consuming
// worker capacity, without a single impatient joiner killing a computation
// other callers still want.
type call struct {
	key    queryKey
	epoch  uint64 // epoch current at registration; joiners must match
	shared bool   // registered in inflight + eligible for the cache

	view  *dtlp.IndexView        // pinned epoch view; nil = newest at execution
	yield func(graph.Path) error // streaming observer; runs on the pool worker

	ctx     context.Context
	cancel  context.CancelFunc
	waiters atomic.Int32 // callers currently waiting on done

	// reqSpan is the creating caller's request span (nil for untraced
	// callers).  The computation's queue/execute spans — and everything the
	// engine and transport hang beneath them — belong to the creator's
	// trace; joiners only record an annotation naming it (see join).
	reqSpan   *trace.Span
	queueSpan *trace.Span

	done chan struct{}
	res  core.Result
	err  error
}

// newCall registers a computation created by the caller behind ctx.  The
// call's execution context is detached from the creator's cancellation (a
// coalesced computation must outlive any single waiter) but inherits its
// trace span, under which the queue wait starts immediately.
func newCall(ctx context.Context, key queryKey) *call {
	cctx, cancel := context.WithCancel(context.Background())
	c := &call{key: key, ctx: cctx, cancel: cancel, done: make(chan struct{})}
	c.reqSpan = trace.FromContext(ctx)
	c.queueSpan = c.reqSpan.Child("queue")
	c.waiters.Store(1)
	return c
}

type task struct{ c *call }

// New creates a server over the given index.  provider selects where the
// refine step runs: nil uses a serial local provider (queries already run
// concurrently on the pool), anything else (e.g. a cluster provider) is
// passed through to the engine.  Every refine request carries the query's
// epoch view, so the refine step is snapshot-isolated wherever the provider's
// workers can resolve that epoch.
func New(index *dtlp.Index, provider core.PartialProvider, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		index:    index,
		engine:   core.NewEngine(index, provider, opts.Engine),
		provider: provider,
		opts:     opts,
		tasks:    make(chan *task, opts.QueueDepth),
		cache:    make(map[queryKey]cacheEntry),
		inflight: make(map[queryKey]*call),
	}
	s.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Index returns the server's DTLP index.
func (s *Server) Index() *dtlp.Index { return s.index }

// Engine returns the server's underlying engine.  Direct engine queries
// bypass the scheduler and cache but are still snapshot-isolated.
func (s *Server) Engine() *core.Engine { return s.engine }

// worker drains the task queue, answering each query against its pinned view
// or the newest epoch available when the query starts executing.  Calls whose
// context died while queued are failed without touching the engine.
func (s *Server) worker() {
	defer s.workers.Done()
	for t := range s.tasks {
		c := t.c
		c.queueSpan.Finish()
		if err := c.ctx.Err(); err != nil {
			s.finish(c, core.Result{}, err)
			continue
		}
		res, err := s.execute(c)
		s.finish(c, res, err)
	}
}

// execute answers one call on the calling pool worker.  A panic anywhere in
// the query (the engine, a provider called on this goroutine, a stream's
// yield) fails this call with an error — its waiters and coalesced joiners
// are released by finish like any other failure — and the worker keeps
// draining; the stack is logged once and counted in Stats.Panics.
func (s *Server) execute(c *call) (res core.Result, err error) {
	view := c.view
	if view == nil {
		view = s.index.CurrentView()
	}
	// The execute span is injected into the call's detached context so the
	// engine (and the batching transport beneath it) hang their iteration
	// and rpc spans under the creator's trace.
	exec := c.reqSpan.Child("execute")
	defer exec.Finish()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			log.Printf("serve: panic answering query (%d,%d) k=%d: %v\n%s", c.key.s, c.key.t, c.key.k, r, debug.Stack())
			res, err = core.Result{}, fmt.Errorf("serve: query panic: %v", r)
		}
	}()
	ctx := trace.NewContext(c.ctx, exec)
	if c.yield != nil {
		return s.engine.StreamView(ctx, view, c.key.s, c.key.t, c.key.k, c.yield)
	}
	return s.engine.QueryViewCtx(ctx, view, c.key.s, c.key.t, c.key.k)
}

// finish completes a call: publishes the result to all joined waiters and,
// for shared calls, installs it in the epoch-tagged cache.
func (s *Server) finish(c *call, res core.Result, err error) {
	c.res, c.err = res, err
	c.cancel()
	s.mu.Lock()
	if c.shared && s.inflight[c.key] == c {
		delete(s.inflight, c.key)
	}
	if err == nil && c.shared && s.opts.CacheCapacity > 0 {
		s.storeCacheLocked(c.key, cacheEntry{epoch: res.Epoch, res: res})
	}
	s.mu.Unlock()
	tr := c.reqSpan.Trace()
	outlier := false
	switch {
	case err == nil && !res.Converged:
		s.nonConverged.Add(1)
		tr.MarkNonConverged()
		outlier = true
	case err == nil && res.BoundGap > 0:
		s.budgetTerminated.Add(1)
		tr.MarkNonConverged()
		outlier = true
		for {
			cur := s.maxBoundGap.Load()
			if res.BoundGap <= math.Float64frombits(cur) {
				break
			}
			if s.maxBoundGap.CompareAndSwap(cur, math.Float64bits(res.BoundGap)) {
				break
			}
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.canceled.Add(1)
		tr.MarkCanceled()
	case err != nil:
		tr.MarkError()
	}
	s.logSlowQuery(c, res, err, outlier)
	close(c.done)
}

// logSlowQuery emits the structured slow-query log line for outliers
// (non-converged or budget-terminated answers) and for queries slower than
// Options.SlowQueryThreshold, carrying the trace id and per-stage breakdown
// when the query was traced.
func (s *Server) logSlowQuery(c *call, res core.Result, err error, outlier bool) {
	lg := s.opts.Logger
	if lg == nil || err != nil {
		return
	}
	slow := s.opts.SlowQueryThreshold > 0 && res.Elapsed >= s.opts.SlowQueryThreshold
	if !outlier && !slow {
		return
	}
	kv := []any{
		"s", uint64(c.key.s), "t", uint64(c.key.t), "k", c.key.k,
		"epoch", res.Epoch,
		"elapsed", res.Elapsed.Round(time.Microsecond).String(),
		"iterations", res.Iterations,
		"converged", res.Converged,
	}
	if res.BoundGap > 0 {
		kv = append(kv, "bound_gap", strconv.FormatFloat(res.BoundGap, 'g', -1, 64))
	}
	if tr := c.reqSpan.Trace(); tr != nil {
		kv = append(kv, "trace", trace.IDString(tr.ID()))
		stages := tr.Stages()
		names := make([]string, 0, len(stages))
		for name := range stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			kv = append(kv, "stage_"+name, stages[name].Round(time.Microsecond).String())
		}
	}
	lg.Warn("slow query", kv...)
}

// abandon records that one waiter gave up on c.  The last waiter to leave
// cancels the computation and unregisters the call, so the next identical
// query starts fresh instead of joining a corpse.
func (s *Server) abandon(c *call) {
	s.mu.Lock()
	if c.waiters.Add(-1) == 0 {
		if c.shared && s.inflight[c.key] == c {
			delete(s.inflight, c.key)
		}
		c.cancel()
	}
	s.mu.Unlock()
}

// storeCacheLocked inserts an entry, evicting stale entries (and, if the
// cache is still full, arbitrary ones) to respect the capacity bound.
// Callers must hold s.mu.
func (s *Server) storeCacheLocked(key queryKey, e cacheEntry) {
	if len(s.cache) >= s.opts.CacheCapacity {
		cur := s.index.CurrentView().Epoch()
		for k, old := range s.cache {
			if old.epoch != cur {
				delete(s.cache, k)
			}
		}
		for k := range s.cache {
			if len(s.cache) < s.opts.CacheCapacity {
				break
			}
			delete(s.cache, k)
		}
	}
	s.cache[key] = e
}

// Request is one KSP query: q(Src, Dst) with K paths.
type Request struct {
	Src, Dst graph.VertexID
	K        int
	// Epoch, when set, pins the query to that retained index epoch: the
	// whole search runs against the epoch's frozen weights however many
	// batches have landed since.  An epoch outside the retention window fails
	// the query with an error wrapping ErrEpochEvicted.  Nil means the newest
	// epoch available.
	Epoch *uint64
	// Yield, when set, receives the result paths incrementally, as the search
	// settles them (see core.Engine.StreamView), on the pool worker executing
	// the query; an error from it aborts the computation.
	Yield func(graph.Path) error
}

// Query answers r through the scheduler and blocks until the result is
// available; it is safe for unbounded concurrent use, and admission beyond
// the queue depth blocks callers (backpressure) rather than growing an
// unbounded backlog.
//
// A request with neither Epoch nor Yield is shared: a result cached for the
// current epoch is returned immediately, an identical in-flight query is
// joined, and the answer lands in the cache.  Any other request is private
// (pin answers are immutable but rare; stream yields belong to one client)
// and bypasses the cache and coalescing, but still runs on the pool.
//
// Once ctx is done the caller returns immediately with ctx's error, and —
// when it was the computation's last remaining waiter — the computation
// itself is canceled mid-iteration, so a hung-up client stops consuming
// worker capacity.  A coalesced computation with other live waiters keeps
// running for them.
func (s *Server) Query(ctx context.Context, r Request) (core.Result, error) {
	if err := ctx.Err(); err != nil {
		return core.Result{}, err
	}
	var view *dtlp.IndexView
	if r.Epoch != nil {
		if view = s.index.ViewAt(*r.Epoch); view == nil {
			return core.Result{}, fmt.Errorf("%w: epoch %d (current %d)",
				ErrEpochEvicted, *r.Epoch, s.index.CurrentView().Epoch())
		}
	}
	key := queryKey{s: r.Src, t: r.Dst, k: r.K}
	shared := r.Epoch == nil && r.Yield == nil

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return core.Result{}, fmt.Errorf("serve: server is closed")
	}
	// The epoch is read under s.mu so the cache/in-flight decisions below
	// are made against a single consistent notion of "current": reading it
	// earlier could evict an entry that is in fact newer than our reading.
	epoch := s.index.CurrentView().Epoch()
	if shared {
		if e, ok := s.cache[key]; ok {
			if e.epoch == epoch {
				s.mu.Unlock()
				s.queries.Add(1)
				s.hits.Add(1)
				return e.res, nil
			}
			delete(s.cache, key) // stale epoch: lazy invalidation
		}
		if c, ok := s.inflight[key]; ok && c.epoch == epoch {
			c.waiters.Add(1)
			s.mu.Unlock()
			return s.join(ctx, c)
		}
	}
	c := newCall(ctx, key)
	c.view, c.yield = view, r.Yield
	if shared {
		c.epoch = epoch
		c.shared = true
		s.inflight[key] = c
	}
	s.senders.Add(1)
	s.mu.Unlock()
	return s.await(ctx, c)
}

// join waits, as one more waiter, for an identical query for the same epoch
// that is already running (or queued), sharing its outcome instead of
// computing it twice.  A traced joiner records which trace owns the
// computation it attached to, so its own trace explains where the time went.
func (s *Server) join(ctx context.Context, c *call) (core.Result, error) {
	var jspan *trace.Span
	if js := trace.FromContext(ctx); js != nil {
		jspan = js.Child("coalesced")
		jspan.SetAttr("owner_trace", trace.IDString(c.reqSpan.Trace().ID()))
	}
	select {
	case <-c.done:
		jspan.Finish()
		s.queries.Add(1)
		s.coalesced.Add(1)
		return c.res, c.err
	case <-ctx.Done():
		jspan.Finish()
		s.abandon(c)
		return core.Result{}, ctx.Err()
	}
}

// await enqueues the freshly created call and waits for its outcome as its
// first waiter.
func (s *Server) await(ctx context.Context, c *call) (core.Result, error) {
	select {
	case s.tasks <- &task{c: c}:
		s.senders.Done()
	case <-ctx.Done():
		// The creator's patience ran out while the queue was full, but
		// joiners with live contexts may share this call: hand the blocking
		// enqueue off to a detached sender so the call still executes for
		// them.  If every waiter is gone by then, abandon() has canceled the
		// call's context and the worker fast-fails it without computing.
		// The sender holds s.senders, so Close cannot close the task channel
		// underneath the pending send.
		go func() {
			s.tasks <- &task{c: c}
			s.senders.Done()
		}()
		s.abandon(c)
		return core.Result{}, ctx.Err()
	}
	select {
	case <-c.done:
		s.queries.Add(1)
		return c.res, c.err
	case <-ctx.Done():
		s.abandon(c)
		return core.Result{}, ctx.Err()
	}
}

// ApplyUpdates applies one batch of edge weight updates and returns the epoch
// it published, so a caller answering for one client (the gateway's
// /v1/updates) attributes the batch to its own epoch even under concurrent
// writers.  An edge named twice takes its last weight.  An empty batch
// publishes nothing and returns the current epoch.  See write for the
// sequence every batch goes through.
func (s *Server) ApplyUpdates(ctx context.Context, batch []graph.WeightUpdate) (uint64, error) {
	if len(batch) == 0 {
		return s.index.CurrentView().Epoch(), nil
	}
	st, err := s.write(ctx, batch, nil)
	return st.Epoch, err
}

// ApplyTopology applies one batch of topology mutations (edge/vertex inserts
// and deletes): the index derives the new master graph and partition
// copy-on-write, rebuilds only the touched subgraphs, and publishes the next
// epoch exactly like a weight batch.  It returns the batch's maintenance
// statistics: the epoch it published, the global ids assigned to inserted
// edges, the sorted ids of all deleted edges, and the number of subgraphs
// rebuilt.  An empty batch publishes nothing.  See write for the sequence
// every batch goes through.
func (s *Server) ApplyTopology(ctx context.Context, up graph.TopologyUpdate) (dtlp.TopologyStats, error) {
	if up.IsZero() {
		return dtlp.TopologyStats{Epoch: s.index.CurrentView().Epoch()}, nil
	}
	return s.write(ctx, nil, &up)
}

// write is the writer path shared by both kinds of batch: a weight batch
// when up is nil, a topology batch otherwise.  Batches from concurrent
// callers serialize on writeMu, so WAL records land in epoch order
// regardless of kind, and each batch is durable before it is visible: it is
// checked, appended to the write-ahead log (when a Store is configured)
// under the epoch it is about to publish, applied to the index — which
// writes the master graph too and publishes that epoch — and only then
// broadcast to workers.  A batch the log refuses is neither applied nor
// acknowledged.  Queries already in flight keep their epoch, and every
// Options.SnapshotEvery batches a fresh snapshot is written (rotating the
// WAL).  For a weight batch only the returned Epoch is set.
//
// ctx is a trace carrier only: a span it carries gains wal, rebuild,
// broadcast and snapshot children.  The write path does not consume
// cancellation (a half-applied batch is worse than a late one).
func (s *Server) write(ctx context.Context, batch []graph.WeightUpdate, up *graph.TopologyUpdate) (dtlp.TopologyStats, error) {
	kind := "update"
	if up != nil {
		kind = "topology"
	}
	sp := trace.FromContext(ctx)
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.logInStepLocked(); err != nil {
		return dtlp.TopologyStats{}, err
	}
	// The check is the index's own, so the log never holds a batch the apply
	// below would refuse.  writeMu makes serve the index's only writer, so
	// the batch will publish the current epoch + 1.
	var err error
	if up != nil {
		err = s.index.CheckTopology(*up)
	} else {
		err = s.index.CheckUpdates(batch)
	}
	if err != nil {
		return dtlp.TopologyStats{}, fmt.Errorf("%w: %w", ErrInvalidBatch, err)
	}
	epoch := s.index.CurrentView().Epoch() + 1
	if s.opts.Store != nil {
		ws := sp.Child("wal")
		if up != nil {
			err = s.opts.Store.AppendTopology(epoch, *up)
		} else {
			err = s.opts.Store.AppendBatch(epoch, batch)
		}
		ws.Finish()
		if err != nil {
			return dtlp.TopologyStats{}, s.resyncLogLocked(fmt.Errorf("serve: logging %s batch for epoch %d: %w", kind, epoch, err))
		}
	}
	rs := sp.Child("rebuild")
	var st dtlp.TopologyStats
	if up != nil {
		st, err = s.index.ApplyTopology(*up)
		rs.SetAttrInt("subgraphs_rebuilt", int64(st.SubgraphsRebuilt))
	} else {
		var us dtlp.UpdateStats
		us, err = s.index.ApplyUpdates(batch)
		st.Epoch = us.Epoch
		rs.SetAttrInt("updates", int64(len(batch)))
	}
	rs.Finish()
	if err != nil {
		return st, s.resyncLogLocked(fmt.Errorf("serve: applying %s batch logged for epoch %d: %w", kind, epoch, err))
	}
	if st.Epoch != epoch {
		return st, s.resyncLogLocked(fmt.Errorf("serve: %s batch logged for epoch %d published epoch %d: the index has a writer besides serve", kind, epoch, st.Epoch))
	}
	var broadcast func() error
	switch {
	case up != nil && s.opts.BroadcastTopology != nil:
		broadcast = func() error { return s.opts.BroadcastTopology(*up) }
	case up == nil && s.opts.Broadcast != nil:
		broadcast = func() error { return s.opts.Broadcast(batch) }
	}
	if broadcast != nil {
		bs := sp.Child("broadcast")
		err := broadcast()
		bs.Finish()
		if err != nil {
			return st, fmt.Errorf("serve: broadcasting %s batch: %w", kind, err)
		}
	}
	if up != nil {
		s.topoBatches.Add(1)
		s.subgraphsRebuilt.Add(int64(st.SubgraphsRebuilt))
	} else {
		s.batches.Add(1)
		s.updates.Add(int64(len(batch)))
	}
	ss := sp.Child("snapshot")
	err = s.maybeSnapshotLocked(epoch)
	ss.Finish()
	return st, err
}

// maybeSnapshotLocked advances the shared snapshot cadence (weight and
// topology batches both count toward SnapshotEvery) and writes a snapshot
// when it is due.  Callers must hold writeMu.
func (s *Server) maybeSnapshotLocked(epoch uint64) error {
	if s.opts.Store == nil || s.opts.SnapshotEvery <= 0 {
		return nil
	}
	s.sinceSnapshot++
	if s.sinceSnapshot < s.opts.SnapshotEvery {
		return nil
	}
	if _, err := s.opts.Store.SaveSnapshot(s.index); err != nil {
		return fmt.Errorf("serve: periodic snapshot at epoch %d: %w", epoch, err)
	}
	s.sinceSnapshot = 0
	s.snapshots.Add(1)
	return nil
}

// resyncLogLocked ends a write whose batch was refused after its append was
// attempted, failing it with err.  The log may hold the batch although the
// index did not apply it: a failed append whose rollback failed leaves its
// record behind, an apply that fails follows a successful append, and either
// way the next batch must be able to log under the same epoch and a restart
// must not replay the refused one.  A snapshot of the index supersedes the
// whole log, so writing one resynchronises the two; if that fails too, every
// later write retries it first and is refused until it succeeds.  Callers
// must hold writeMu.
func (s *Server) resyncLogLocked(err error) error {
	if s.opts.Store == nil {
		return err
	}
	s.logAhead = true
	if rerr := s.logInStepLocked(); rerr != nil {
		return fmt.Errorf("%w; the batch may reappear after a restart: %w", err, rerr)
	}
	return err
}

// logInStepLocked writes the snapshot that resynchronises the log with the
// index when a refused batch may have left a record behind.  Callers must
// hold writeMu.
func (s *Server) logInStepLocked() error {
	if !s.logAhead {
		return nil
	}
	if _, err := s.opts.Store.SaveSnapshot(s.index); err != nil {
		return fmt.Errorf("serve: resynchronising the write-ahead log, which may hold a batch that was not applied: %w", err)
	}
	s.logAhead = false
	s.sinceSnapshot = 0
	s.snapshots.Add(1)
	return nil
}

// Stats returns the server's scheduling counters, including the refine
// transport's batching counters when the provider exposes them.
func (s *Server) Stats() Stats {
	st := Stats{
		QueriesServed:  s.queries.Load(),
		CacheHits:      s.hits.Load(),
		Coalesced:      s.coalesced.Load(),
		UpdateBatches:  s.batches.Load(),
		UpdatesApplied: s.updates.Load(),
		Snapshots:      s.snapshots.Load(),

		TopologyBatches:  s.topoBatches.Load(),
		SubgraphsRebuilt: s.subgraphsRebuilt.Load(),
		NonConverged:     s.nonConverged.Load(),
		Canceled:         s.canceled.Load(),
		Panics:           s.panics.Load(),
		Epoch:            s.index.CurrentView().Epoch(),

		BudgetTerminated: s.budgetTerminated.Load(),
		MaxBoundGap:      math.Float64frombits(s.maxBoundGap.Load()),
	}
	if bp, ok := s.provider.(batchStatsProvider); ok {
		bst := bp.BatchStats()
		st.RPCBatches = bst.Batches
		st.DedupHits = bst.DedupHits
		st.PairCacheHits = bst.CacheHits
		st.Panics += bst.Panics
	}
	if fp, ok := s.provider.(failoverStatsProvider); ok {
		fst := fp.FailoverStats()
		st.Failovers = fst.Failovers
		st.HedgedBatches = fst.HedgedBatches
		st.HedgeWins = fst.HedgeWins
		st.HedgeDrops = fst.HedgeDrops
	}
	return st
}

// Close drains the worker pool.  Queries submitted after Close fail;
// queries already admitted complete normally.  Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.senders.Wait() // every admitted task is in the channel now
	close(s.tasks)
	s.workers.Wait()
}
