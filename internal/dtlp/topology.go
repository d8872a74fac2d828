package dtlp

import (
	"runtime"

	"kspdg/internal/graph"
)

// TopologyStats reports the maintenance work one topology batch performed.
type TopologyStats struct {
	// Epoch is the epoch published for the batch (or the current epoch for
	// an empty batch).
	Epoch uint64
	// InsertedEdges are the global ids assigned to the batch's InsertEdges,
	// in order.  Nil for an empty batch.
	InsertedEdges []graph.EdgeID
	// DeletedEdges are the sorted global ids of all edges the batch removed,
	// including edges deleted because an endpoint vertex was deleted.
	DeletedEdges []graph.EdgeID
	// SubgraphsRebuilt counts the subgraphs whose bounding paths and EP-Index
	// were re-enumerated — the incremental-maintenance cost of the batch.
	SubgraphsRebuilt int
	// SubgraphsTotal is the subgraph count after the batch, for reference.
	SubgraphsTotal int
}

// CheckTopology returns the error ApplyTopology would fail up with, without
// applying anything: it derives the new graph and partition copy-on-write
// and discards them.  Callers that log a batch before applying it (serve's
// writer) check it first, so the log never holds a batch the index refuses.
func (x *Index) CheckTopology(up graph.TopologyUpdate) error {
	if up.IsZero() {
		return nil
	}
	old := x.gen.Load()
	newParent, inserted, deleted, err := old.part.Parent().ApplyTopology(up)
	if err != nil {
		return err
	}
	_, _, err = old.part.ApplyTopology(newParent, up, inserted, deleted)
	return err
}

// ApplyTopology ingests a batch of topology mutations: it derives a new
// parent graph and partition (copy-on-write; see graph.Graph.ApplyTopology
// and partition.Partition.ApplyTopology), re-enumerates bounding paths and
// EP-Index entries only for the subgraphs the batch touched, rebuilds the
// skeleton graph, and publishes the result as a normal epoch so the
// snapshot-isolated read path observes it exactly like a weight batch.  It
// returns the published epoch (the current epoch for an empty batch) and the
// maintenance work performed.  Queries running against earlier epochs keep
// the old generation alive and are completely unaffected.
//
// ApplyTopology shares the single-writer lock with ApplyUpdates, so topology
// and weight batches serialize against each other in arrival order.
// Touched-subgraph rebuilds are sharded across up to GOMAXPROCS goroutines;
// each rebuild is independent of the others, so the sharding changes
// wall-clock time, never results.
func (x *Index) ApplyTopology(up graph.TopologyUpdate) (TopologyStats, error) {
	if up.IsZero() {
		return TopologyStats{Epoch: x.CurrentView().Epoch()}, nil
	}
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	old := x.gen.Load()

	newParent, inserted, deleted, err := old.part.Parent().ApplyTopology(up)
	if err != nil {
		return TopologyStats{}, err
	}
	newPart, touched, err := old.part.ApplyTopology(newParent, up, inserted, deleted)
	if err != nil {
		return TopologyStats{}, err
	}

	// Rebuild the first-level index of every touched subgraph; everything
	// else is shared with the previous generation (the partition shares the
	// corresponding *Subgraph values, so the old indexes stay valid).
	subs := make([]*SubgraphIndex, newPart.NumSubgraphs())
	copy(subs, old.subs)
	if err := buildSubgraphIndexes(subs, newPart, touched, x.cfg, runtime.GOMAXPROCS(0)); err != nil {
		return TopologyStats{}, err
	}

	// Boundary membership and cross-subgraph minima can shift globally, so
	// the pair->subgraph map and the skeleton are rebuilt wholesale (both are
	// cheap relative to bounding-path enumeration and fully deterministic).
	ng := &generation{part: newPart, subs: subs}
	if err := ng.finishStructure(); err != nil {
		return TopologyStats{}, err
	}

	// Publish: install the generation, then publish the next epoch view.
	// Untouched subgraphs share their weight snapshots with the previous
	// epoch exactly like a weight batch.
	x.gen.Store(ng)
	nv := x.publishView(x.view.Load().epoch + 1)
	return TopologyStats{
		Epoch:            nv.epoch,
		InsertedEdges:    inserted,
		DeletedEdges:     deleted,
		SubgraphsRebuilt: len(touched),
		SubgraphsTotal:   newPart.NumSubgraphs(),
	}, nil
}
