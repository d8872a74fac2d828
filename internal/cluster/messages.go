// Package cluster provides the distributed runtime KSP-DG is deployed on in
// Section 6.1 of the paper.  The paper uses Apache Storm with an
// EntranceSpout (master: graph ingestion, weight updates, query admission),
// SubgraphBolts (workers owning subgraphs and their DTLP first-level
// indexes), and QueryBolts (workers holding a replica of the skeleton graph
// and driving the filter/refine iterations of their assigned queries).
//
// This package reproduces that topology in two deployments of the same
// workers:
//
//   - an in-process cluster (Cluster) where workers are goroutine-backed
//     nodes answering partial-KSP requests through direct calls over the
//     master's index, used by the benchmarks to study scaling with the
//     number of workers; and
//   - a TCP deployment (Serve / RemoteWorker) whose messages travel as
//     CRC-checked binary frames (wire.go, built on internal/codec), used by
//     cmd/kspd to run real worker processes on a network.
//
// Both serve the refine step through core.PartialProvider behind per-worker
// rpcbatch queues, so the KSP-DG engine is oblivious to where the subgraphs
// live.
package cluster

import (
	"kspdg/internal/core"
	"kspdg/internal/graph"
	"kspdg/internal/trace"
)

// PartialKSPRequest asks a worker for partial k shortest paths for the pairs
// it owns subgraphs for.
type PartialKSPRequest struct {
	Pairs []core.PairRequest
	K     int
	// Epoch pins the request to an index epoch when HasEpoch is true.
	// Workers that can resolve the epoch (in-process workers sharing the
	// master's index) answer from that epoch's weight snapshots, giving the
	// querying engine snapshot isolation across the whole refine step.
	// Workers that cannot (remote processes, or an evicted epoch) serve
	// their latest applied weights instead, matching the eventually
	// consistent behaviour of the paper's Storm deployment.
	Epoch    uint64
	HasEpoch bool
	// TraceID carries the master-side trace identity so the worker's
	// execution spans stitch into the same trace (see internal/trace).  A
	// zero TraceID means the request is untraced and the worker records
	// nothing.
	TraceID uint64
}

// FlatPaths is the copy-free wire encoding of a response's paths: every
// path's vertex sequence is appended to one Verts array, described by the
// parallel per-path Lens and Dists arrays, with Counts giving the number of
// paths per request pair.  A flat response decodes into paths that subslice
// its one Verts array — instead of one slice header and one vertex array per
// path — which removes the dominant per-path allocations from the master's
// refine hot path.  The wire decoder allocates a fresh Verts per reply, since
// the engine keeps the paths that alias it.
type FlatPaths struct {
	Verts  []graph.VertexID
	Lens   []int32
	Dists  []float64
	Counts []int32
}

// appendPath encodes one path onto the flat arrays.
func (f *FlatPaths) appendPath(p graph.Path) {
	f.Verts = append(f.Verts, p.Vertices...)
	f.Lens = append(f.Lens, int32(len(p.Vertices)))
	f.Dists = append(f.Dists, p.Dist)
}

// PartialKSPResponse carries the partial paths a worker computed, keyed by
// pair index into the request (so the wire carries no pair keys).
type PartialKSPResponse struct {
	// Flat holds the paths of every request pair (see FlatPaths); Counts[i]
	// is the number of paths for request pair i (possibly zero).
	Flat *FlatPaths
	// ServedEpoch reports that the request's epoch pin was honoured: every
	// path was computed from the frozen weights of the requested epoch.
	// False when the worker cannot resolve epochs (standalone processes),
	// when the epoch was evicted from the retention window, or when the
	// request carried no pin.  Consumers must not treat an unpinned answer
	// as immutable (see rpcbatch's epoch memo).
	ServedEpoch bool
	// Spans are the worker-side execution spans recorded when the request
	// carried a nonzero TraceID: one aggregate span for the whole request
	// plus bounded per-pair Yen spans, with durations relative to request
	// receipt.  The master grafts them under its RPC span.
	Spans []trace.SpanMsg
}

// NumPairs returns the number of request pair slots the response answers.
func (r *PartialKSPResponse) NumPairs() int {
	if r.Flat == nil {
		return 0
	}
	return len(r.Flat.Counts)
}

// DecodePaths expands the response into per-pair path lists with two
// allocations total (the per-pair slice-of-slices and one shared path-header
// array); every decoded path's vertex slice aliases the response's Verts
// array, so callers must treat the paths as immutable.  The arrays come off
// the wire, so nothing about them is trusted: a response whose lengths
// overrun its arrays decodes to its well-formed prefix — as many leading
// pairs as the data supports, the rest empty — and never panics.
func (r *PartialKSPResponse) DecodePaths() [][]graph.Path {
	f := r.Flat
	if f == nil {
		return nil
	}
	out := make([][]graph.Path, len(f.Counts))
	hdrs := make([]graph.Path, 0, len(f.Lens))
	voff := 0
	for i, l := range f.Lens {
		n := int(l)
		if n < 0 || voff+n > len(f.Verts) || i >= len(f.Dists) {
			break
		}
		hdrs = append(hdrs, graph.Path{Vertices: f.Verts[voff : voff+n : voff+n], Dist: f.Dists[i]})
		voff += n
	}
	poff := 0
	for i, c := range f.Counts {
		n := int(c)
		if n < 0 || poff+n > len(hdrs) {
			break
		}
		out[i] = hdrs[poff : poff+n : poff+n]
		poff += n
	}
	return out
}

// WeightUpdateRequest delivers a whole weight batch to a worker; masters send
// it to every worker.  Edge ids are global; the worker translates them.
type WeightUpdateRequest struct {
	Updates []graph.WeightUpdate
}

// WeightUpdateResponse acknowledges maintenance work.
type WeightUpdateResponse struct {
	// Err reports a failure applying the batch on the worker (standalone
	// workers apply batches to their own partition copy).  Masters must
	// treat a non-empty Err as a failed broadcast: the worker's weights can
	// no longer be assumed to match the master's.
	Err string
}

// TopologyUpdateRequest delivers a batch of topology mutations (edge and
// vertex inserts and deletes) to every worker: a batch can reshape the
// partition (move boundary status, open subgraphs), and every worker must
// route future pairs against the same structure.
type TopologyUpdateRequest struct {
	Update graph.TopologyUpdate
	// NumWorkers and Factor let a standalone worker derive ownership of the
	// subgraphs this batch opens without coordination, by Owners.  A zero
	// NumWorkers assigns nothing new.
	NumWorkers int
	Factor     int
}

// TopologyUpdateResponse acknowledges a topology batch.
type TopologyUpdateResponse struct {
	// InsertedEdges are the global ids the worker assigned to the batch's
	// inserts, in order.  The id assignment is deterministic (appended past
	// the current edge count), so every worker and the master agree on it;
	// masters can cross-check the echo to detect divergence.
	InsertedEdges []graph.EdgeID
	// DeletedEdges are the sorted global ids of all edges the batch removed,
	// including edges removed because an endpoint vertex was deleted.
	DeletedEdges []graph.EdgeID
	// Err reports a failure applying the batch on a standalone worker; the
	// master must treat it as a failed broadcast (the worker's structure can
	// no longer be assumed to match the master's).
	Err string
}

// StatsRequest asks a worker for its load counters.
type StatsRequest struct{}

// StatsResponse reports a worker's load counters.
type StatsResponse struct {
	Worker          int
	Subgraphs       int
	PairsServed     int
	RequestsServed  int
	UpdatesReceived int
	// TopologyBatches counts topology broadcasts received.
	TopologyBatches int
	// Panics counts requests that panicked while being served and were
	// answered with an error reply instead of taking the process down.
	Panics int
}

// envelope is the tagged union used on the TCP wire: exactly one of its
// message fields is set (see wire.go for the byte layout).
//
// ID is the request tag: the server processes envelopes concurrently and
// replies out of order, echoing the ID, and the client demultiplexes replies
// by matching IDs.  No value is special.
type envelope struct {
	ID       uint64
	Partial  *PartialKSPRequest
	Update   *WeightUpdateRequest
	Topology *TopologyUpdateRequest
	Stats    *StatsRequest
	// Ping is a health-check probe: the server answers with Pong and does no
	// work.
	Ping bool
}

type replyEnvelope struct {
	// ID echoes the request's ID.
	ID       uint64
	Err      string
	Partial  *PartialKSPResponse
	Update   *WeightUpdateResponse
	Topology *TopologyUpdateResponse
	Stats    *StatsResponse
	Pong     bool
}
