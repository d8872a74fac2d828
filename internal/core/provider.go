package core

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"slices"
	"sort"
	"sync"

	"kspdg/internal/dtlp"
	"kspdg/internal/fanout"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
)

// PairRequest asks for the partial k shortest paths between two adjacent
// vertices of a reference path (global vertex ids).  The vertices of a pair
// always share at least one subgraph.
type PairRequest struct {
	A, B graph.VertexID
}

// AsyncPartialReply carries the outcome of a refine round: the partial
// paths of every requested pair, aligned with the request (Paths[i] answers
// pairs[i]), or the error that failed the round.
type AsyncPartialReply struct {
	Paths [][]graph.Path
	Err   error
}

// PartialProvider supplies partial k shortest paths for boundary pairs.  The
// refine step of KSP-DG is expressed against this interface so that the same
// engine code runs both locally (LocalProvider) and on a cluster where the
// pairs are fanned out to the workers owning the relevant subgraphs (the
// cluster package's providers).
type PartialProvider interface {
	// PartialKSPAsyncCtx issues one refine round without blocking the
	// caller: it returns immediately with a buffered channel that later
	// receives, for every requested pair and at its position in pairs, up
	// to k shortest paths between the pair's endpoints restricted to single
	// subgraphs containing both, in global vertex ids and ascending
	// distance.  The engine uses the gap to run the next iteration's filter
	// step while the round is in flight.
	//
	// Every subgraph search reads the weights frozen in the epoch view iv,
	// over the partition of that epoch's generation; a nil view requests each
	// subgraph's current snapshot (see RefineSource).  pairs is only valid
	// until the call returns — implementations that keep working afterwards
	// copy it.  The context is a trace carrier only (see internal/trace):
	// the engine stops between iterations, so a round in flight is never
	// aborted.
	PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []PairRequest, k int) <-chan AsyncPartialReply
}

// LocalProvider computes partial k shortest paths directly against the local
// partition, optionally using multiple goroutines.  It is the single-process
// stand-in for the SubgraphBolts of the Storm deployment.
type LocalProvider struct {
	part  *partition.Partition
	width int
}

// NewLocalProvider returns a LocalProvider over the given partition whose
// requests fan their pairs out over parallelism goroutines; 0 or 1 means
// serial, which is right under a query pool that is already GOMAXPROCS wide.
func NewLocalProvider(part *partition.Partition, parallelism int) *LocalProvider {
	return &LocalProvider{part: part, width: parallelism}
}

// PartialKSPAsyncCtx implements PartialProvider.  The answer is computed on a
// goroutine of its own, so the engine overlaps its next filter step with the
// local refine exactly as it does with a remote one.  A panic in a search
// fails this request with an error reply instead of killing the process.
func (lp *LocalProvider) PartialKSPAsyncCtx(_ context.Context, iv *dtlp.IndexView, pairs []PairRequest, k int) <-chan AsyncPartialReply {
	out := make(chan AsyncPartialReply, 1)
	if k <= 0 {
		out <- AsyncPartialReply{Err: fmt.Errorf("core: k must be positive, got %d", k)}
		return out
	}
	pairs = append([]PairRequest(nil), pairs...)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				slog.Error("core: panic in local refine", "pairs", len(pairs), "panic", r, "stack", string(debug.Stack()))
				out <- AsyncPartialReply{Err: fmt.Errorf("core: local refine panic: %v", r)}
			}
		}()
		part, weights := RefineSource(lp.part, iv)
		results := make([][]graph.Path, len(pairs))
		fanout.Do(len(pairs), lp.width, func(i int) {
			results[i] = RefinePair(part, pairs[i], k, weights, nil)
		})
		out <- AsyncPartialReply{Paths: results}
	}()
	return out
}

// RefineSource resolves what a refine request searches: the partition and
// subgraph snapshots of the epoch view, or — for a nil view — part and each
// subgraph's current snapshot.  Topology updates replace the partition, so a
// view's own partition (not the one a provider was built over) is
// authoritative for its epoch.
func RefineSource(part *partition.Partition, iv *dtlp.IndexView) (*partition.Partition, func(partition.SubgraphID) *graph.Snapshot) {
	if iv == nil {
		return part, func(id partition.SubgraphID) *graph.Snapshot { return part.Subgraph(id).Local.Snapshot() }
	}
	return iv.Partition(), iv.SubgraphWeights
}

// RefinePair computes up to k shortest paths between the pair's endpoints:
// one Yen search in every subgraph that contains both endpoints (and, with a
// non-nil owns, that the caller hosts), merged into the k shortest distinct
// paths (Algorithm 4, lines 3-8).  Paths are returned in global vertex ids
// sorted by distance.  weights resolves the view each subgraph is searched
// over (see RefineSource).
//
// The per-subgraph results pass through MergePaths, so the union of per-owner
// answers merges to the answer of a single owner of everything — which is
// what lets a master merge replies from workers with any ownership split.
func RefinePair(part *partition.Partition, pr PairRequest, k int, weights func(partition.SubgraphID) *graph.Snapshot, owns func(partition.SubgraphID) bool) []graph.Path {
	if pr.A == pr.B {
		return []graph.Path{{Vertices: []graph.VertexID{pr.A}}}
	}
	if k <= 0 {
		return nil
	}
	inB := part.SubgraphsOf(pr.B)
	var all []graph.Path
	found := 0
	for _, id := range part.SubgraphsOf(pr.A) {
		if !slices.Contains(inB, id) || owns != nil && !owns(id) {
			continue // not a common subgraph the caller hosts
		}
		paths := searchSubgraph(part.Subgraph(id), pr, k, weights(id))
		if found++; found == 1 {
			all = paths // the caller's to keep: the snapshot cache holds its own copy
		} else {
			all = append(all, paths...)
		}
	}
	if found < 2 {
		// One Yen call already emits sorted, duplicate-free paths; only
		// results from several subgraphs need the merge.
		return all
	}
	return MergePaths(all, k)
}

// searchSubgraph runs the pair's Yen search inside one subgraph and returns
// the paths in global vertex ids.  The answer goes through the snapshot
// cache: a pair asked again on the same snapshot, at the same or a smaller k,
// is answered without a search.
func searchSubgraph(sub *partition.Subgraph, pr PairRequest, k int, snap *graph.Snapshot) []graph.Path {
	la, okA := sub.ToLocal(pr.A)
	lb, okB := sub.ToLocal(pr.B)
	if !okA || !okB {
		return nil
	}
	if paths, ok := snap.CachedPaths(la, lb, k); ok {
		return paths
	}
	paths := shortest.Yen(snap, la, lb, k, nil)
	for i, lp := range paths {
		paths[i] = sub.GlobalPath(lp)
	}
	snap.CachePaths(la, lb, k, paths)
	return paths
}

// mergeSeenPool recycles the dedup sets MergePaths uses.
var mergeSeenPool = sync.Pool{New: func() interface{} { return new(graph.PathSet) }}

// MergePaths merges partial paths collected for one pair — from several
// subgraphs, or from several workers whose subgraphs share the pair — into
// the k shortest distinct paths in ascending ComparePaths order.  Sorting
// first makes the result independent of the order the inputs arrived in.  The
// merge is in place: paths must be owned by the caller and is clobbered.
func MergePaths(paths []graph.Path, k int) []graph.Path {
	sort.Slice(paths, func(i, j int) bool { return graph.ComparePaths(paths[i], paths[j]) < 0 })
	seen := mergeSeenPool.Get().(*graph.PathSet)
	seen.Reset()
	defer mergeSeenPool.Put(seen)
	dedup := paths[:0]
	for _, p := range paths {
		if len(dedup) >= k {
			break
		}
		if seen.Add(p) {
			dedup = append(dedup, p)
		}
	}
	return dedup
}
