package cluster

import (
	"context"
	"fmt"
	"sync"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/partition"
)

// Cluster is the in-process deployment of the refine step: the subgraphs of
// the index's partition are placed on Workers by Owners at factor 1, and a
// *Cluster is the core.PartialProvider over them — the one provider,
// calling each worker directly instead of over TCP.
//
// The index is the cluster's only writer.  Weight batches need no message:
// workers answer epoch pins from the index's retained views.  A topology
// batch replaces the index's partition, and the next refine call installs
// the new partition and ownership on every worker before it routes a pair,
// so no published epoch can reach a worker that cannot serve it.
type Cluster struct {
	*BatchedRemoteProvider
	index   *dtlp.Index
	workers []*Worker

	mu   sync.Mutex
	part *partition.Partition // the partition the workers were last given
}

// New builds an in-process cluster of numWorkers workers over index.
// Queries run through core.NewEngine(index, c, opts); updates go to the
// index alone.
func New(index *dtlp.Index, numWorkers int) (*Cluster, error) {
	if numWorkers < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 worker, got %d", numWorkers)
	}
	part := index.Partition()
	c := &Cluster{index: index, part: part}
	calls := make([]func(PartialKSPRequest) (PartialKSPResponse, error), numWorkers)
	for w := range calls {
		worker := NewWorker(w, part, OwnedBy(w, part.NumSubgraphs(), numWorkers, 1))
		worker.SetViewResolver(index.ViewAt)
		c.workers = append(c.workers, worker)
		calls[w] = func(req PartialKSPRequest) (PartialKSPResponse, error) {
			return worker.HandlePartialKSP(req), nil
		}
	}
	c.BatchedRemoteProvider = newProvider(calls, 1, ReplicatedOptions{}, nil)
	return c, nil
}

// Workers returns the cluster's workers, for their load counters (see
// Worker.HandleStats).
func (c *Cluster) Workers() []*Worker { return c.workers }

// PartialKSPAsyncCtx implements core.PartialProvider: it catches the workers
// up with the index's partition, then routes like any provider.
func (c *Cluster) PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int) <-chan core.AsyncPartialReply {
	c.follow()
	return c.BatchedRemoteProvider.PartialKSPAsyncCtx(ctx, iv, pairs, k)
}

// follow catches the workers up with the index's partition.  The index
// installs a new partition before it publishes the epoch that reads it, so
// after follow every subgraph of every pinned partition has an owner.
// Owners places opened subgraphs without moving old ones, so ownership only
// grows and workers still serve older pins.
func (c *Cluster) follow() {
	cur := c.index.Partition()
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur == c.part {
		return
	}
	for w, worker := range c.workers {
		worker.SetPartition(cur, OwnedBy(w, cur.NumSubgraphs(), len(c.workers), 1))
	}
	c.part = cur
}
