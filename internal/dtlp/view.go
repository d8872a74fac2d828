package dtlp

import (
	"math"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
)

// viewRetention is the number of recently published IndexViews kept reachable
// through ViewAt.  Views older than this can no longer be resolved by epoch
// (in-flight queries that already hold a pointer keep theirs alive regardless).
const viewRetention = 32

// IndexView is an immutable epoch view of the DTLP index: the skeleton graph
// weights and every subgraph's local weights as of one published epoch.
//
// Views are copy-on-write: consecutive epochs share the weight snapshots of
// all subgraphs an update batch did not touch, which keeps publication cost
// proportional to the affected subgraphs rather than the whole index.  A view
// is safe for unrestricted concurrent use; queries running against the same
// view are guaranteed to observe a single consistent set of edge weights even
// while newer epochs are being published.
type IndexView struct {
	x     *Index
	gen   *generation // the structural generation this epoch belongs to
	epoch uint64
	skel  *graph.Snapshot   // skeleton graph weights at this epoch
	subs  []*graph.Snapshot // per-subgraph local weights, indexed by SubgraphID
}

// Epoch returns the monotonically increasing epoch number of this view.
// Epoch 0 is the state at index construction time.
func (v *IndexView) Epoch() uint64 { return v.epoch }

// Index returns the index this view was published from.
func (v *IndexView) Index() *Index { return v.x }

// Partition returns the partition as of this view's epoch.  A partition's
// vertex/edge mappings are immutable (topology updates install a new
// partition in a new generation), so the returned value stays consistent
// with this view's weight snapshots no matter what is published later.
func (v *IndexView) Partition() *partition.Partition { return v.gen.part }

// Skeleton returns the skeleton of this view's generation for id translation.
// Its topology and id mappings are immutable; weight reads must go through
// SkeletonWeights instead.
func (v *IndexView) Skeleton() *Skeleton { return v.gen.skeleton }

// SkeletonWeights returns the skeleton graph weights frozen at this epoch.
func (v *IndexView) SkeletonWeights() *graph.Snapshot { return v.skel }

// SubgraphWeights returns the local weights of subgraph id frozen at this
// epoch.
func (v *IndexView) SubgraphWeights(id partition.SubgraphID) *graph.Snapshot {
	return v.subs[id]
}

// GlobalWeight returns the weight of global edge e at this epoch, resolved
// through the owning subgraph's snapshot (the partition is edge-disjoint, so
// every edge has exactly one owner).
func (v *IndexView) GlobalWeight(e graph.EdgeID) float64 {
	if e < 0 || int(e) >= v.gen.part.Parent().NumEdges() {
		return math.Inf(1)
	}
	loc := v.gen.part.Locate(e)
	if loc.Subgraph == partition.NoSubgraph {
		return math.Inf(1)
	}
	return v.subs[loc.Subgraph].Weight(loc.LocalEdge)
}

// BoundaryLowerBounds returns, for an arbitrary (possibly non-boundary)
// global vertex u, a lower bound on the distance at this epoch within each
// containing subgraph from u to every boundary vertex of that subgraph.  This
// implements the Step 1 handling of non-boundary query endpoints (Section
// 5.3): the returned map is used to attach u to the skeleton graph.
//
// The bound used is the exact shortest distance inside the subgraph, which is
// a valid (and the tightest possible) lower bound for the first/last segment
// of any path leaving the subgraph through a boundary vertex.
func (v *IndexView) BoundaryLowerBounds(u graph.VertexID) map[graph.VertexID]float64 {
	out := make(map[graph.VertexID]float64)
	for _, id := range v.gen.part.SubgraphsOf(u) {
		for bv, d := range v.gen.subs[id].boundaryDistancesFrom(u, v.subs[id]) {
			if cur, ok := out[bv]; !ok || d < cur {
				out[bv] = d
			}
		}
	}
	return out
}

// BoundaryLowerBoundsTo is the directed counterpart of BoundaryLowerBounds:
// per boundary vertex b of the subgraphs containing u, the within-subgraph
// distance at this epoch travelling from b to u.  For undirected graphs it
// equals BoundaryLowerBounds.
func (v *IndexView) BoundaryLowerBoundsTo(u graph.VertexID) map[graph.VertexID]float64 {
	if !v.gen.part.Parent().Directed() {
		return v.BoundaryLowerBounds(u)
	}
	out := make(map[graph.VertexID]float64)
	for _, id := range v.gen.part.SubgraphsOf(u) {
		for bv, d := range v.gen.subs[id].boundaryDistancesTo(u, v.subs[id]) {
			if cur, ok := out[bv]; !ok || d < cur {
				out[bv] = d
			}
		}
	}
	return out
}

// WithinSubgraphDistance returns the smallest shortest-path distance from s to
// t at this epoch measured inside any single subgraph containing both, or
// +Inf if no subgraph contains both vertices.  KSP-DG uses it to attach a
// direct edge between two non-boundary query endpoints that share a subgraph.
func (v *IndexView) WithinSubgraphDistance(s, t graph.VertexID) float64 {
	best := infValue
	for _, id := range v.gen.part.CommonSubgraphs(s, t) {
		sub := v.gen.part.Subgraph(id)
		ls, okS := sub.ToLocal(s)
		lt, okT := sub.ToLocal(t)
		if !okS || !okT {
			continue
		}
		if d := shortest.ShortestDistance(v.subs[id], ls, lt, nil); d < best {
			best = d
		}
	}
	return best
}

// publishView builds and atomically publishes the view of the given epoch
// for the current generation from every subgraph's current snapshot.  A
// subgraph no batch wrote since the previous view still has the snapshot that
// view holds, so consecutive views share it (copy-on-write) with no
// bookkeeping here.  Callers must hold x.writeMu.
func (x *Index) publishView(epoch uint64) *IndexView {
	gen := x.gen.Load()
	nv := &IndexView{
		x:     x,
		gen:   gen,
		epoch: epoch,
		skel:  gen.skeleton.g.Snapshot(),
		subs:  make([]*graph.Snapshot, len(gen.subs)),
	}
	for id := range nv.subs {
		nv.subs[id] = gen.part.Subgraph(partition.SubgraphID(id)).Local.Snapshot()
	}
	x.view.Store(nv)

	x.viewMu.Lock()
	x.recent = append(x.recent, nv)
	if len(x.recent) > viewRetention {
		x.recent = x.recent[len(x.recent)-viewRetention:]
	}
	x.viewMu.Unlock()
	return nv
}

// CurrentView returns the most recently published epoch view.  The returned
// view is immutable and safe to query from any number of goroutines while
// ApplyUpdates publishes newer epochs.
func (x *Index) CurrentView() *IndexView { return x.view.Load() }

// ViewAt returns the retained view for the given epoch, or nil if that epoch
// has been evicted from the retention window (see viewRetention).
func (x *Index) ViewAt(epoch uint64) *IndexView {
	x.viewMu.Lock()
	defer x.viewMu.Unlock()
	for i := len(x.recent) - 1; i >= 0; i-- {
		if x.recent[i].epoch == epoch {
			return x.recent[i]
		}
	}
	return nil
}
