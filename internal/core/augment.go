package core

import (
	"kspdg/internal/graph"
)

// augmentedSkeleton is a read-only view of the skeleton graph extended with
// up to two temporary vertices representing non-boundary query endpoints
// (Section 5.3).  The extra vertices receive ids immediately after the
// skeleton's own vertex range and are connected to the boundary vertices of
// their subgraphs with lower-bound weights; two non-boundary endpoints that
// share a subgraph additionally get a direct edge.
//
// The view implements graph.WeightedView so the unmodified shortest-path
// machinery can run on it.
type augmentedSkeleton struct {
	base         graph.WeightedView
	nBase, eBase int // vertex and edge counts of base

	// extraEdges describes the added edges; edge ids start at eBase.
	extraEdges []augEdge
	// slot and adj serve Neighbors without a map lookup per expanded vertex:
	// adj holds the complete arc list (base arcs, then extra arcs in insertion
	// order) of every vertex that has extra arcs, and slot[v] is 1 + its index
	// in adj, 0 for a vertex with none.  slot has one entry per vertex, added
	// ones included.
	slot []int32
	adj  [][]graph.Arc
}

type augEdge struct {
	u, v graph.VertexID
	w    float64
}

// newAugmentedSkeleton wraps base with room for the two query endpoints.
func newAugmentedSkeleton(base graph.WeightedView) *augmentedSkeleton {
	n := base.NumVertices()
	return &augmentedSkeleton{
		base:  base,
		nBase: n,
		eBase: base.NumEdges(),
		slot:  make([]int32, n, n+2),
	}
}

// addVertex reserves a new augmented vertex and returns its id.
func (a *augmentedSkeleton) addVertex() graph.VertexID {
	a.slot = append(a.slot, 0)
	return graph.VertexID(len(a.slot) - 1)
}

// addEdge adds an edge between u and v with weight w.  For undirected base
// graphs the edge is traversable both ways.
func (a *augmentedSkeleton) addEdge(u, v graph.VertexID, w float64) graph.EdgeID {
	id := graph.EdgeID(a.eBase + len(a.extraEdges))
	a.extraEdges = append(a.extraEdges, augEdge{u: u, v: v, w: w})
	a.addArc(u, graph.Arc{To: v, Edge: id})
	if !a.base.Directed() {
		a.addArc(v, graph.Arc{To: u, Edge: id})
	}
	return id
}

// addArc appends arc to u's arc list, seeding the list with u's base arcs the
// first time u gains one.
func (a *augmentedSkeleton) addArc(u graph.VertexID, arc graph.Arc) {
	if a.slot[u] == 0 {
		var arcs []graph.Arc
		if int(u) < a.nBase {
			baseArcs := a.base.Neighbors(u)
			arcs = append(make([]graph.Arc, 0, len(baseArcs)+2), baseArcs...)
		}
		a.adj = append(a.adj, arcs)
		a.slot[u] = int32(len(a.adj))
	}
	a.adj[a.slot[u]-1] = append(a.adj[a.slot[u]-1], arc)
}

func (a *augmentedSkeleton) Directed() bool { return a.base.Directed() }

func (a *augmentedSkeleton) NumVertices() int { return len(a.slot) }

func (a *augmentedSkeleton) NumEdges() int { return a.eBase + len(a.extraEdges) }

func (a *augmentedSkeleton) Neighbors(v graph.VertexID) []graph.Arc {
	if i := a.slot[v]; i != 0 {
		return a.adj[i-1]
	}
	if int(v) < a.nBase {
		return a.base.Neighbors(v)
	}
	return nil
}

func (a *augmentedSkeleton) Weight(e graph.EdgeID) float64 {
	if int(e) < a.eBase {
		return a.base.Weight(e)
	}
	return a.extraEdges[int(e)-a.eBase].w
}

func (a *augmentedSkeleton) InitialWeight(e graph.EdgeID) float64 {
	if int(e) < a.eBase {
		return a.base.InitialWeight(e)
	}
	return a.extraEdges[int(e)-a.eBase].w
}

func (a *augmentedSkeleton) EdgeEndpoints(e graph.EdgeID) graph.Endpoints {
	if int(e) < a.eBase {
		return a.base.EdgeEndpoints(e)
	}
	ae := a.extraEdges[int(e)-a.eBase]
	return graph.Endpoints{U: ae.u, V: ae.v}
}

func (a *augmentedSkeleton) EdgeBetween(u, v graph.VertexID) (graph.EdgeID, bool) {
	if int(u) < a.nBase && int(v) < a.nBase {
		return a.base.EdgeBetween(u, v)
	}
	// One endpoint is an added vertex, so only an extra arc can match.
	for _, arc := range a.Neighbors(u) {
		if arc.To == v {
			return arc.Edge, true
		}
	}
	return graph.NoEdge, false
}

var _ graph.WeightedView = (*augmentedSkeleton)(nil)
