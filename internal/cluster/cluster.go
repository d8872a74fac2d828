package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync/atomic"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/fanout"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/workload"
)

// Config controls the in-process cluster.
type Config struct {
	// NumWorkers is the number of simulated worker nodes (SubgraphBolt
	// hosts).  It must be at least 1.
	NumWorkers int
	// QueryBolts is the number of concurrent query processors used by
	// ProcessBatch.  Zero means NumWorkers.
	QueryBolts int
	// MeasureBytes enables gob-encoding of every message to account for the
	// bytes that would cross the network.  It adds CPU cost, so benchmarks
	// that only need timing leave it off.
	MeasureBytes bool
	// Replicas is the number of workers hosting each subgraph (capped at
	// NumWorkers).  Zero or one means single-copy ownership.  In-process
	// workers do not fail, so replication here models the replicated load
	// profile (each worker carries its share of every rank) rather than
	// failover; the TCP deployment adds the failure handling on top (see
	// ReplicatedRemoteProvider).
	Replicas int
	// Batch tunes the cross-query coalescing of partial-KSP requests (see
	// rpcbatch.Options).  Zero values use the rpcbatch defaults.
	Batch rpcbatch.Options
}

// Stats aggregates the communication and load counters of a cluster run.
type Stats struct {
	Workers         int
	ReplicaFactor   int // workers hosting each subgraph (1 = no replication)
	MessagesSent    int64
	BytesSent       int64
	QueriesHandled  int64
	UpdatesRouted   int64
	TopologyBatches int64 // topology batches broadcast to the workers
	RPCBatches      int64 // coalesced partial-KSP batches shipped to workers
	PairsCoalesced  int64 // pairs that shared a batch with another query's pairs
	DedupHits       int64 // pairs answered by an identical pending pair
	PairCacheHits   int64 // pairs answered from the epoch-pinned pair memo
	WorkerRequests  []int // per-worker partial-KSP requests served
	WorkerPairs     []int // per-worker pairs served
	WorkerSubgraphs []int // per-worker owned subgraphs
	WorkerUpdates   []int // per-worker weight updates received
}

// Cluster is the in-process master-worker deployment: the master holds the
// DTLP index (skeleton graph) and the full graph, while the subgraphs are
// assigned to workers that serve the refine step.
type Cluster struct {
	cfg   Config
	index *dtlp.Index

	workers  []*Worker
	table    *ReplicaTable
	provider *batchedProvider

	messages atomic.Int64
	bytes    atomic.Int64
	queries  atomic.Int64
	updates  atomic.Int64
	topology atomic.Int64
}

// part resolves the current partition through the index: topology batches
// replace the partition, so the cluster must never cache the construction-time
// pointer for routing.
func (c *Cluster) part() *partition.Partition { return c.index.Partition() }

// New builds an in-process cluster over an existing DTLP index.  Subgraphs
// are assigned to workers by a greedy least-loaded policy on vertex counts,
// mirroring the "allocated to different workers on a many-to-one basis based
// on their load" strategy of Section 5.2.
func New(index *dtlp.Index, cfg Config) (*Cluster, error) {
	if cfg.NumWorkers < 1 {
		return nil, fmt.Errorf("cluster: NumWorkers must be >= 1, got %d", cfg.NumWorkers)
	}
	if cfg.QueryBolts <= 0 {
		cfg.QueryBolts = cfg.NumWorkers
	}
	part := index.Partition()
	c := &Cluster{
		cfg:   cfg,
		index: index,
	}

	// Least-loaded assignment, rank by rank when replication is on.
	table, err := AssignReplicas(part, cfg.NumWorkers, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	c.table = table
	for w := 0; w < cfg.NumWorkers; w++ {
		worker := NewWorker(w, part, table.OwnedBy(w))
		// In-process workers share the master's index, so they can serve
		// epoch-pinned requests from the retained views and report real
		// EP-Index touched-path counts for update batches.
		worker.SetViewResolver(index.ViewAt)
		worker.SetTouchedCounter(index.PathsCrossing)
		c.workers = append(c.workers, worker)
	}
	// One outbound batching queue per worker, shared by every engine built on
	// this cluster: pair requests from different concurrent queries (same
	// epoch) coalesce into one PartialKSPRequest per flush.
	senders := make([]rpcbatch.Sender, cfg.NumWorkers)
	for w, worker := range c.workers {
		// The same message accounting the TCP deployment would incur.
		senders[w] = tracedSender(w, func(req PartialKSPRequest) (PartialKSPResponse, error) {
			c.account(req)
			resp := worker.HandlePartialKSP(req)
			c.account(resp)
			return resp, nil
		})
	}
	c.provider = newBatchedProvider(senders, c.routePair, cfg.Batch)
	return c, nil
}

// routePair returns the primary worker of every subgraph containing both
// endpoints of the pair.  In-process workers do not fail, so the replicas
// (when Config.Replicas > 1) stay on the sidelines for routing and only
// carry the replicated update load.
func (c *Cluster) routePair(pr core.PairRequest) []int {
	var ws []int
	seen := make(map[int]bool)
	for _, id := range c.part().CommonSubgraphs(pr.A, pr.B) {
		w := c.table.Primary(id)
		if !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	return ws
}

// NumWorkers returns the number of workers.
func (c *Cluster) NumWorkers() int { return len(c.workers) }

// Worker returns worker i.
func (c *Cluster) Worker(i int) *Worker { return c.workers[i] }

// Index returns the cluster's DTLP index.
func (c *Cluster) Index() *dtlp.Index { return c.index }

// AssignedWorker returns the primary worker hosting subgraph id.
func (c *Cluster) AssignedWorker(id partition.SubgraphID) int { return c.table.Primary(id) }

// ReplicaTable returns the cluster's subgraph-to-workers assignment.
func (c *Cluster) ReplicaTable() *ReplicaTable { return c.table }

// Provider returns the cluster's refine-step provider: an asynchronous
// batching pipeline with one outbound queue per worker, where pair requests
// from different concurrent queries coalesce (and dedupe) before being
// shipped to the workers owning the relevant subgraphs.  The provider is
// shared across all engines built on this cluster — that sharing is what
// makes cross-query batching possible.
func (c *Cluster) Provider() core.PartialProvider { return c.provider }

// Engine builds a KSP-DG engine whose refine step runs on this cluster.
func (c *Cluster) Engine(opts core.Options) *core.Engine {
	return core.NewEngine(c.index, c.Provider(), opts)
}

// ApplyUpdates routes a batch of weight updates to the owning workers (for
// load accounting) and performs the index maintenance, which also writes the
// master's copy of the graph.
func (c *Cluster) ApplyUpdates(batch []graph.WeightUpdate) error {
	if len(batch) == 0 {
		return nil
	}
	perWorker := make(map[int][]graph.WeightUpdate)
	part := c.part()
	for _, u := range batch {
		loc := part.Locate(u.Edge)
		if loc.Subgraph == partition.NoSubgraph {
			return fmt.Errorf("cluster: update for unpartitioned edge %d", u.Edge)
		}
		// Every replica of the subgraph receives the update: replicated
		// ownership multiplies the maintenance traffic, and the per-worker
		// counters are how that cost shows up in the stats.
		for _, w := range c.table.Replicas(loc.Subgraph) {
			perWorker[w] = append(perWorker[w], u)
		}
	}
	for w, ups := range perWorker {
		req := WeightUpdateRequest{Updates: ups}
		c.account(req)
		c.workers[w].HandleWeightUpdate(req)
		c.updates.Add(int64(len(ups)))
	}
	_, err := c.index.ApplyUpdates(batch)
	return err
}

// ApplyTopology applies a batch of topology mutations (edge and vertex
// inserts and deletes) to the cluster: the shared index derives the new
// graph and partition and rebuilds only the touched subgraph indexes (see
// dtlp.Index.ApplyTopology), the replica table is extended round-robin for
// any subgraphs the batch opened, and the batch is broadcast to every worker
// — topology can reshape routing anywhere, so unlike weight updates there is
// no per-subgraph addressing.  Each worker then has the new partition and
// its (possibly grown) ownership installed atomically.
func (c *Cluster) ApplyTopology(up graph.TopologyUpdate) (dtlp.TopologyStats, error) {
	st, err := c.index.ApplyTopology(up)
	if err != nil {
		return st, err
	}
	return st, c.BroadcastTopology(up)
}

// BroadcastTopology distributes a topology batch the shared index has already
// applied: the replica table is extended round-robin over any subgraphs the
// batch opened, the batch is forwarded to every worker, and the new partition
// plus each worker's (possibly grown) ownership is installed atomically.
// Serve layers that front an in-process cluster wire this as
// serve.Options.BroadcastTopology — the serve writer applies the batch to the
// index, so only the distribution step remains; ApplyTopology composes both
// steps for standalone cluster users.
func (c *Cluster) BroadcastTopology(up graph.TopologyUpdate) error {
	if up.IsZero() {
		return nil
	}
	newPart := c.index.Partition()
	c.table.Extend(newPart.NumSubgraphs())
	req := TopologyUpdateRequest{
		Update:     up,
		NumWorkers: len(c.workers),
		Factor:     c.table.Factor(),
	}
	for i, w := range c.workers {
		c.account(req)
		resp := w.HandleTopologyUpdate(req)
		c.account(resp)
		if resp.Err != "" {
			return fmt.Errorf("cluster: worker %d failed to apply topology batch: %s", i, resp.Err)
		}
		w.SetPartition(newPart, c.table.OwnedBy(i))
	}
	c.topology.Add(1)
	return nil
}

// ProcessBatch processes a batch of queries with the configured number of
// concurrent QueryBolts and returns per-query results in input order.
func (c *Cluster) ProcessBatch(queries []workload.Query, k int, opts core.Options) ([]core.Result, error) {
	results := make([]core.Result, len(queries))
	errs := make([]error, len(queries))
	engine := c.Engine(opts)
	fanout.Do(len(queries), c.cfg.QueryBolts, func(i int) {
		q := queries[i]
		results[i], errs[i] = engine.QueryViewCtx(context.TODO(), nil, q.Source, q.Target, k)
		c.queries.Add(1)
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Stats returns the aggregated communication and load statistics.
func (c *Cluster) Stats() Stats {
	bst := c.provider.BatchStats()
	st := Stats{
		Workers:         len(c.workers),
		ReplicaFactor:   c.table.Factor(),
		MessagesSent:    c.messages.Load(),
		BytesSent:       c.bytes.Load(),
		QueriesHandled:  c.queries.Load(),
		UpdatesRouted:   c.updates.Load(),
		TopologyBatches: c.topology.Load(),
		RPCBatches:      bst.Batches,
		PairsCoalesced:  bst.Coalesced,
		DedupHits:       bst.DedupHits,
		PairCacheHits:   bst.CacheHits,
	}
	for _, w := range c.workers {
		ws := w.HandleStats(StatsRequest{})
		st.WorkerRequests = append(st.WorkerRequests, ws.RequestsServed)
		st.WorkerPairs = append(st.WorkerPairs, ws.PairsServed)
		st.WorkerSubgraphs = append(st.WorkerSubgraphs, ws.Subgraphs)
		st.WorkerUpdates = append(st.WorkerUpdates, ws.UpdatesReceived)
	}
	return st
}

// account records one message and, if enabled, its encoded size.
func (c *Cluster) account(msg interface{}) {
	c.messages.Add(1)
	if !c.cfg.MeasureBytes {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(msg); err == nil {
		c.bytes.Add(int64(buf.Len()))
	}
}

// Close flushes and stops the cluster's outbound batching queues.  Queries
// issued after Close fail; it is only needed when the cluster's lifetime is
// shorter than the process (tests, benchmarks).
func (c *Cluster) Close() { c.provider.Close() }
