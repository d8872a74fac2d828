// Package serve is the concurrent, snapshot-isolated query layer on top of
// the KSP-DG engine: the front door a production deployment would expose.
//
// A Server owns the master copy of the road network and its DTLP index and
// separates the two kinds of traffic the paper's system must absorb:
//
//   - Queries run on their callers' goroutines, at most Options.Workers at
//     once.  Each query is answered against
//     one immutable index epoch (dtlp.IndexView), so an in-flight query never
//     observes a half-applied update batch no matter how many batches land
//     while it runs.  Each query is its own computation under its caller's
//     context, and results are cached per (source, target, k) until the
//     epoch they were computed on is superseded.
//   - Weight and topology batches go through one writer that logs each batch
//     to the write-ahead log, applies it to the index, which writes the master
//     graph and publishes the next epoch atomically, and then broadcasts it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/trace"
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
	// Workers bounds the number of queries executing at once; callers
	// beyond it wait for a slot.  Zero means GOMAXPROCS.
	Workers int
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
	// Logger receives a structured slow-query log line for every
	// non-converged query, and for every query slower than
	// SlowQueryThreshold.  The line carries the trace id and the per-stage
	// duration breakdown when the query was traced.  A contained query panic
	// is logged on it too, with its stack.  Nil discards them.
	Logger *slog.Logger
	// SlowQueryThreshold is the duration above which a successfully answered
	// query is logged as slow.  Zero disables the duration rule;
	// non-converged queries are logged regardless.
	SlowQueryThreshold time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 1024
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// Stats aggregates a server's scheduling counters.
type Stats struct {
	QueriesServed  int64 // completed queries, including cache hits
	CacheHits      int64 // queries answered from the epoch-tagged cache
	Coalesced      int64 // always zero: each query computes on its own (kept for callers that read it)
	UpdateBatches  int64 // weight update batches applied
	UpdatesApplied int64 // individual edge updates applied
	Snapshots      int64 // periodic snapshots written through Options.Store
	// TopologyBatches counts applied topology batches (edge/vertex inserts
	// and deletes); SubgraphsRebuilt totals the subgraphs whose bounding
	// paths were re-enumerated across those batches — the cumulative
	// incremental-maintenance cost of the write path.
	TopologyBatches  int64
	SubgraphsRebuilt int64
	// NonConverged counts successfully answered queries that are not exact
	// (core.Result.Converged == false): a safety valve — the MaxIterations
	// cap or the join certificate's round cap — stopped the search, so their
	// paths are valid but may not be the k shortest.
	NonConverged int64
	// BudgetTerminated is always zero: no query stops early short of exact
	// (kept for callers that read it).
	BudgetTerminated int64
	// Canceled counts queries abandoned before completion because their
	// context was canceled or blew its deadline, including queries whose
	// caller hung up while they waited for a slot.
	Canceled int64
	// Panics counts panics contained without taking the process down: in a
	// query's execution, which fails that query (see execute), and in the
	// refine transport's worker call, which fails the share it was shipping
	// (rpcbatch.Stats.Panics).  The stack of each is in the process log.
	Panics int64
	Epoch  uint64
	// RPCBatches mirrors the provider's count of shipped shares (see
	// rpcbatch.Stats) when the refine step runs on workers; it stays zero
	// for local providers.
	RPCBatches int64
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

	// slots holds one token per executing query; its capacity is
	// Options.Workers.
	slots chan struct{}
	// admitted counts the queries past the closed check, for Close.
	admitted sync.WaitGroup

	mu     sync.Mutex
	closed bool
	cache  map[queryKey]cacheEntry

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
	batches          atomic.Int64
	updates          atomic.Int64
	topoBatches      atomic.Int64
	subgraphsRebuilt atomic.Int64
	snapshots        atomic.Int64
	nonConverged     atomic.Int64
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

// New creates a server over the given index; it starts no goroutines.
// provider selects where the refine step runs: nil uses a serial local
// provider (queries already run concurrently, one per caller), anything else
// (e.g. a cluster provider) is passed through to the engine.  Every refine
// request carries the query's epoch view, so the refine step is
// snapshot-isolated wherever the provider's workers can resolve that epoch.
func New(index *dtlp.Index, provider core.PartialProvider, opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		index:    index,
		engine:   core.NewEngine(index, provider, opts.Engine),
		provider: provider,
		opts:     opts,
		slots:    make(chan struct{}, opts.Workers),
		cache:    make(map[queryKey]cacheEntry),
	}
}

// Index returns the server's DTLP index.
func (s *Server) Index() *dtlp.Index { return s.index }

// execute answers one query on the caller's goroutine, against view or,
// when view is nil, the newest epoch.  yield, when set, streams the paths.
// A panic anywhere in the query (the engine, a provider called on this
// goroutine, a stream's yield) fails this query with an error like any other
// failure; the stack is logged once and counted in Stats.Panics.
func (s *Server) execute(ctx context.Context, reqSpan *trace.Span, key queryKey, view *dtlp.IndexView, yield func(graph.Path) error) (res core.Result, err error) {
	if view == nil {
		view = s.index.CurrentView()
	}
	// The execute span is injected into the query's context so the engine
	// (and the transport beneath it) hang their iteration and rpc spans under
	// it.
	exec := reqSpan.Child("execute")
	defer exec.Finish()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.opts.Logger.Error("query panic", "s", uint64(key.s), "t", uint64(key.t), "k", key.k,
				"panic", r, "stack", string(debug.Stack()))
			res, err = core.Result{}, fmt.Errorf("serve: query panic: %v", r)
		}
	}()
	ctx = trace.NewContext(ctx, exec)
	if yield != nil {
		return s.engine.StreamView(ctx, view, key.s, key.t, key.k, yield)
	}
	return s.engine.QueryViewCtx(ctx, view, key.s, key.t, key.k)
}

// finish records a query's outcome: it installs a cacheable answer in the
// epoch-tagged cache and counts the outcome.  A canceled query is counted
// as canceled, every other one as served.
func (s *Server) finish(reqSpan *trace.Span, key queryKey, cacheable bool, res core.Result, err error) {
	tr := reqSpan.Trace()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.canceled.Add(1)
		tr.MarkCanceled()
		return
	}
	s.queries.Add(1)
	if err != nil {
		tr.MarkError()
		return
	}
	if cacheable && s.opts.CacheCapacity > 0 {
		s.mu.Lock()
		s.storeCacheLocked(key, cacheEntry{epoch: res.Epoch, res: res})
		s.mu.Unlock()
	}
	if !res.Converged {
		s.nonConverged.Add(1)
		tr.MarkNonConverged()
	}
	s.logSlowQuery(tr, key, res)
}

// logSlowQuery emits the structured slow-query log line for non-converged
// answers and for queries slower than Options.SlowQueryThreshold, carrying
// the trace id and per-stage breakdown when the query was traced.
func (s *Server) logSlowQuery(tr *trace.Trace, key queryKey, res core.Result) {
	slow := s.opts.SlowQueryThreshold > 0 && res.Elapsed >= s.opts.SlowQueryThreshold
	if res.Converged && !slow {
		return
	}
	kv := []any{
		"s", uint64(key.s), "t", uint64(key.t), "k", key.k,
		"epoch", res.Epoch,
		"elapsed", res.Elapsed.Round(time.Microsecond).String(),
		"iterations", res.Iterations,
		"converged", res.Converged,
	}
	if tr != nil {
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
	s.opts.Logger.Warn("slow query", kv...)
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
	// settles them (see core.Engine.StreamView), on the goroutine that called
	// Query; an error from it aborts the computation.
	Yield func(graph.Path) error
}

// Query answers r on the calling goroutine and blocks until the result is
// available; it is safe for unbounded concurrent use.  At most
// Options.Workers queries execute at once; further callers wait for a slot
// rather than growing an unbounded backlog of running searches.
//
// A request with neither Epoch nor Yield is cacheable: a result cached for
// the current epoch is returned immediately, and a computed answer lands in
// the cache.  Any other request bypasses the cache (pin answers are immutable
// but rare; stream yields belong to one client) but still takes a slot.
//
// Every call computes on its own, under ctx.  A caller whose ctx ends while
// it waits for a slot returns at once with ctx's error and never reaches the
// engine; a running query stops at the engine's next cancellation check (at
// every iteration and in every refine wait), so a hung-up client stops
// consuming a slot.
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
	cacheable := r.Epoch == nil && r.Yield == nil

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return core.Result{}, fmt.Errorf("serve: server is closed")
	}
	if cacheable {
		// The epoch is read under s.mu so the hit test is made against a
		// single consistent notion of "current": reading it earlier could
		// evict an entry that is in fact newer than our reading.
		if e, ok := s.cache[key]; ok {
			if e.epoch == s.index.CurrentView().Epoch() {
				s.mu.Unlock()
				s.queries.Add(1)
				s.hits.Add(1)
				return e.res, nil
			}
			delete(s.cache, key) // stale epoch: lazy invalidation
		}
	}
	s.admitted.Add(1)
	s.mu.Unlock()
	defer s.admitted.Done()

	// The queue and execute spans, and everything the engine and transport
	// hang beneath them, belong to the caller's request span (nil for
	// untraced callers).
	reqSpan := trace.FromContext(ctx)
	queue := reqSpan.Child("queue")
	var res core.Result
	var err error
	select {
	case s.slots <- struct{}{}:
		queue.Finish()
		// The select may take the slot although ctx has ended too.
		if err = ctx.Err(); err == nil {
			res, err = s.execute(ctx, reqSpan, key, view, r.Yield)
		}
		<-s.slots
	case <-ctx.Done():
		queue.Finish()
		err = ctx.Err()
	}
	s.finish(reqSpan, key, cacheable, res, err)
	return res, err
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
		UpdateBatches:  s.batches.Load(),
		UpdatesApplied: s.updates.Load(),
		Snapshots:      s.snapshots.Load(),

		TopologyBatches:  s.topoBatches.Load(),
		SubgraphsRebuilt: s.subgraphsRebuilt.Load(),
		NonConverged:     s.nonConverged.Load(),
		Canceled:         s.canceled.Load(),
		Panics:           s.panics.Load(),
		Epoch:            s.index.CurrentView().Epoch(),
	}
	if bp, ok := s.provider.(batchStatsProvider); ok {
		bst := bp.BatchStats()
		st.RPCBatches = bst.Batches
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

// Close waits for the queries already admitted to complete; queries
// submitted after Close fail.  Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.admitted.Wait()
}
