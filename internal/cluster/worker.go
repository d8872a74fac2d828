package cluster

import (
	"maps"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/fanout"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/trace"
)

// ViewResolver resolves an index epoch to its retained view, or nil when the
// epoch is unknown (see dtlp.Index.ViewAt).
type ViewResolver func(epoch uint64) *dtlp.IndexView

// Worker is one SubgraphBolt host: it owns a subset of the partition's
// subgraphs (and their first-level DTLP data, which lives in the shared
// dtlp.Index in the in-process deployment) and answers partial-KSP,
// weight-update and topology-update requests for them.
type Worker struct {
	id         int
	state      atomic.Pointer[workerState]
	views      ViewResolver // nil: serve the latest state only
	applyLocal bool         // standalone worker: apply updates to its own partition copy; guarded by updateMu

	// updateMu runs the update handlers one at a time: each derives the next
	// state from the current one, so two at once would lose a batch.
	updateMu sync.Mutex

	// Load counters are atomics: with the parallel executor several request
	// goroutines bump them concurrently, and a shared mutex would serialize
	// exactly the path the executor parallelizes.
	requestsServed  atomic.Int64
	pairsServed     atomic.Int64
	updatesReceived atomic.Int64
	topologyBatches atomic.Int64
	panics          atomic.Int64 // requests failed by a contained panic (see Server.dispatch)
}

// workerState bundles the partition, the ownership set and, for standalone
// workers, the weight snapshots of the owned subgraphs, so an update replaces
// them in one atomic pointer swap: a request handler loads the state once and
// sees a consistent set — never a new partition with an old ownership map,
// and never half of a weight batch.
type workerState struct {
	part  *partition.Partition
	owned map[partition.SubgraphID]bool
	// snaps holds one snapshot per owned subgraph, indexed by SubgraphID and
	// nil elsewhere.  It is nil for in-process workers, which read the
	// shared index's views (or, for an evicted pin, the partition's current
	// snapshots).
	snaps []*graph.Snapshot
}

// weights resolves the snapshot a request without a resolvable pin searches.
func (st *workerState) weights(id partition.SubgraphID) *graph.Snapshot {
	if st.snaps == nil {
		return st.part.Subgraph(id).Local.Snapshot()
	}
	return st.snaps[id]
}

// withSnapshots returns st with the current snapshot of every owned
// subgraph.  A subgraph no batch wrote since the previous state still has
// the snapshot that state holds, and with it the answers cached on it.
func (st *workerState) withSnapshots() *workerState {
	st.snaps = make([]*graph.Snapshot, st.part.NumSubgraphs())
	for id := range st.owned {
		st.snaps[id] = st.part.Subgraph(id).Local.Snapshot()
	}
	return st
}

// NewWorker creates a worker owning the given subgraphs of part.
func NewWorker(id int, part *partition.Partition, owned []partition.SubgraphID) *Worker {
	w := &Worker{id: id}
	w.SetPartition(part, owned)
	return w
}

// SetPartition atomically replaces the worker's partition and ownership set.
// The in-process cluster calls it once it sees a topology batch's partition
// on the shared index, which already derived it; the worker only needs to
// route future requests against it (and any subgraphs the batch opened).
func (w *Worker) SetPartition(part *partition.Partition, owned []partition.SubgraphID) {
	m := make(map[partition.SubgraphID]bool, len(owned))
	for _, sg := range owned {
		m[sg] = true
	}
	w.state.Store(&workerState{part: part, owned: m})
}

// ID returns the worker's identifier.
func (w *Worker) ID() int { return w.id }

// Partition returns the partition the worker currently serves.
func (w *Worker) Partition() *partition.Partition { return w.state.Load().part }

// Owned returns the subgraphs this worker hosts.
func (w *Worker) Owned() []partition.SubgraphID {
	owned := w.state.Load().owned
	out := make([]partition.SubgraphID, 0, len(owned))
	for id := range owned {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Owns reports whether the worker hosts subgraph id.
func (w *Worker) Owns(id partition.SubgraphID) bool { return w.state.Load().owned[id] }

// SetViewResolver enables epoch-pinned request handling: requests carrying an
// epoch are answered from that epoch's weight snapshots when the resolver can
// still supply them.  The in-process cluster wires this to the shared index's
// ViewAt; remote worker processes, which maintain their own weight copies,
// leave it unset and always serve their latest state.
func (w *Worker) SetViewResolver(r ViewResolver) { w.views = r }

// maxPairSpans bounds the per-pair Yen spans one traced request records, so a
// wide batch cannot flood the master's bounded trace with hundreds of spans;
// the aggregate request span always ships.
const maxPairSpans = 32

// pairSpanRecorder accumulates worker-side execution spans for one traced
// request.  Each pair's slot is written by exactly one executor goroutine, so
// recording needs no locks on the parallel path.
type pairSpanRecorder struct {
	reqStart time.Time
	starts   []time.Duration // offset of pair i's search from reqStart
	durs     []time.Duration
}

func newPairSpanRecorder(n int) *pairSpanRecorder {
	return &pairSpanRecorder{
		reqStart: time.Now(),
		starts:   make([]time.Duration, n),
		durs:     make([]time.Duration, n),
	}
}

// timePair wraps one pair's search with duration capture.
func (r *pairSpanRecorder) timePair(i int, search func() []graph.Path) []graph.Path {
	if r == nil {
		return search()
	}
	start := time.Since(r.reqStart)
	paths := search()
	r.starts[i] = start
	r.durs[i] = time.Since(r.reqStart) - start
	return paths
}

// msgs renders the recording as wire spans: index 0 is the aggregate request
// span (its duration is filled by the caller via the returned slice), followed
// by capped per-pair spans parented on it.
func (r *pairSpanRecorder) msgs(w *Worker, req PartialKSPRequest, width int) []trace.SpanMsg {
	msgs := make([]trace.SpanMsg, 0, 1+min(len(req.Pairs), maxPairSpans))
	msgs = append(msgs, trace.SpanMsg{
		Name:   "worker_exec",
		Parent: -1,
		DurNs:  int64(time.Since(r.reqStart)),
		Attrs: []trace.Attr{
			{Key: "worker", Value: strconv.Itoa(w.id)},
			{Key: "pairs", Value: strconv.Itoa(len(req.Pairs))},
			{Key: "width", Value: strconv.Itoa(width)},
		},
	})
	for i := range req.Pairs {
		if i >= maxPairSpans {
			break
		}
		msgs = append(msgs, trace.SpanMsg{
			Name:    "pair_yen",
			Parent:  0,
			StartNs: int64(r.starts[i]),
			DurNs:   int64(r.durs[i]),
			Attrs: []trace.Attr{
				{Key: "pair", Value: strconv.FormatUint(uint64(req.Pairs[i].A), 10) + "-" + strconv.FormatUint(uint64(req.Pairs[i].B), 10)},
			},
		})
	}
	return msgs
}

// HandlePartialKSP computes the partial k shortest paths for every requested
// pair, restricted to the subgraphs this worker owns.  Pairs whose common
// subgraphs are all hosted elsewhere produce empty results.
//
// With a resolvable epoch pin the searches read that epoch's frozen weights
// over the partition of its generation (topology batches replace the
// partition, so a pin freezes structure as well as weights); otherwise they
// read the worker's latest state: a standalone worker's snapshots of its
// owned subgraphs, which no update changes while a search runs.  Searches
// over a snapshot go through its snapshot cache (see graph.Snapshot).
//
// The pairs fan out across GOMAXPROCS goroutines (see fanout.Do); each pair's
// paths land in a result slot indexed by its request position and are
// appended to the flat encoding serially in request order, so the response is
// byte-identical at any width.
//
// Requests carrying a nonzero TraceID additionally get worker-side execution
// spans in the response (see PartialKSPResponse.Spans); untraced requests pay
// nothing.
func (w *Worker) HandlePartialKSP(req PartialKSPRequest) PartialKSPResponse {
	var view *dtlp.IndexView
	if req.HasEpoch && w.views != nil {
		view = w.views(req.Epoch)
	}
	var rec *pairSpanRecorder
	if req.TraceID != 0 {
		rec = newPairSpanRecorder(len(req.Pairs))
	}
	st := w.state.Load()
	part, weights := st.part, st.weights
	if view != nil {
		part, weights = core.RefineSource(part, view)
	}
	owns := func(id partition.SubgraphID) bool { return st.owned[id] }
	results := make([][]graph.Path, len(req.Pairs))
	width := fanout.Do(len(req.Pairs), runtime.GOMAXPROCS(0), func(i int) {
		results[i] = rec.timePair(i, func() []graph.Path {
			return core.RefinePair(part, req.Pairs[i], req.K, weights, owns)
		})
	})
	resp := PartialKSPResponse{
		Flat: &FlatPaths{Counts: make([]int32, len(req.Pairs))},
		// A nil view means the pin was absent or could not be honoured
		// (unknown or evicted epoch): the answer reads the latest weights
		// and must not be treated as frozen at the requested epoch.
		ServedEpoch: view != nil,
	}
	for i, paths := range results {
		resp.Flat.Counts[i] = int32(len(paths))
		for _, p := range paths {
			resp.Flat.appendPath(p)
		}
	}
	if rec != nil {
		resp.Spans = rec.msgs(w, req, width)
	}
	w.requestsServed.Add(1)
	w.pairsServed.Add(int64(len(req.Pairs)))
	return resp
}

// EnableLocalApply makes HandleWeightUpdate apply incoming batches to the
// worker's own partition copy, and makes the worker search snapshots of its
// owned subgraphs, taken now and after every update.  Standalone (TCP)
// workers need this because no one else maintains their weights; in-process
// workers must leave it off — the shared dtlp.Index applies each batch
// exactly once, and applying it early here would zero the deltas its
// incremental maintenance derives.
func (w *Worker) EnableLocalApply() {
	w.updateMu.Lock()
	defer w.updateMu.Unlock()
	w.applyLocal = true
	st := *w.state.Load()
	w.state.Store(st.withSnapshots())
}

// HandleWeightUpdate records that updates for this worker's subgraphs
// arrived and, for standalone workers (see EnableLocalApply), pushes the new
// weights into the worker's partition copy and publishes fresh snapshots of
// the owned subgraphs the batch touched.  Requests that loaded the previous
// state finish on its snapshots.  Workers that share the master's index
// receive no update messages: the index applies each batch once.
func (w *Worker) HandleWeightUpdate(req WeightUpdateRequest) WeightUpdateResponse {
	w.updatesReceived.Add(int64(len(req.Updates)))
	w.updateMu.Lock()
	defer w.updateMu.Unlock()
	if !w.applyLocal {
		return WeightUpdateResponse{}
	}
	st := w.state.Load()
	_, err := st.part.ApplyUpdates(req.Updates)
	// Publish even on error: a batch can fail after some subgraphs took it,
	// and the snapshots must match the partition copy the next batch builds on.
	w.state.Store((&workerState{part: st.part, owned: st.owned}).withSnapshots())
	if err != nil {
		return WeightUpdateResponse{Err: err.Error()}
	}
	return WeightUpdateResponse{}
}

// HandleTopologyUpdate ingests a topology batch.  Workers that share the
// master's index only count it: the index applies the batch once and the
// in-process cluster installs the derived partition via SetPartition.
// Standalone workers (see EnableLocalApply) derive the new graph and
// partition themselves, copy-on-write, and extend their ownership to any
// subgraphs the batch opened by Owners for the request's NumWorkers and
// Factor — the rule the master routes by, so the fleet's ownership stays
// consistent without coordination.
func (w *Worker) HandleTopologyUpdate(req TopologyUpdateRequest) TopologyUpdateResponse {
	w.topologyBatches.Add(1)
	w.updateMu.Lock()
	defer w.updateMu.Unlock()
	if !w.applyLocal {
		return TopologyUpdateResponse{}
	}
	st := w.state.Load()
	// Weight batches reach only the subgraphs' local graphs here, but the
	// subgraphs this batch rebuilds take their weights from the parent: bring
	// the parent up to date first, or they would revert to stale weights.
	parent := st.part.Parent()
	var current []graph.WeightUpdate
	for _, sg := range st.part.Subgraphs {
		local := sg.Local.Snapshot()
		for le, ge := range sg.GlobalEdges {
			current = append(current, graph.WeightUpdate{Edge: ge, NewWeight: local.Weight(graph.EdgeID(le))})
		}
	}
	if err := parent.ApplyUpdates(current); err != nil {
		return TopologyUpdateResponse{Err: err.Error()}
	}
	newParent, inserted, deleted, err := parent.ApplyTopology(req.Update)
	if err != nil {
		return TopologyUpdateResponse{Err: err.Error()}
	}
	newPart, _, err := st.part.ApplyTopology(newParent, req.Update, inserted, deleted)
	if err != nil {
		return TopologyUpdateResponse{Err: err.Error()}
	}
	owned := maps.Clone(st.owned)
	if req.NumWorkers > 0 {
		for sg := st.part.NumSubgraphs(); sg < newPart.NumSubgraphs(); sg++ {
			if slices.Contains(Owners(partition.SubgraphID(sg), req.NumWorkers, req.Factor), w.id) {
				owned[partition.SubgraphID(sg)] = true
			}
		}
	}
	w.state.Store((&workerState{part: newPart, owned: owned}).withSnapshots())
	return TopologyUpdateResponse{InsertedEdges: inserted, DeletedEdges: deleted}
}

// HandleStats returns the worker's load counters.
func (w *Worker) HandleStats(StatsRequest) StatsResponse {
	return StatsResponse{
		Worker:          w.id,
		Subgraphs:       len(w.state.Load().owned),
		PairsServed:     int(w.pairsServed.Load()),
		RequestsServed:  int(w.requestsServed.Load()),
		UpdatesReceived: int(w.updatesReceived.Load()),
		TopologyBatches: int(w.topologyBatches.Load()),
		Panics:          int(w.panics.Load()),
	}
}
