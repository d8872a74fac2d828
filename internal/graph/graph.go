// Package graph provides the dynamic weighted graph substrate used by the
// KSP-DG reproduction.  A Graph models a road network: vertices are
// intersections, edges are road segments, and edge weights are travel times
// that evolve over time (Definition 1 of the paper).
//
// The topology held by one Graph value is immutable: Snapshots alias its
// adjacency, so vertices and edges are never added or removed in place.
// The weights live in one immutable Snapshot at a time, which corresponds to
// the buffer G_curr described in Section 2 of the paper: ApplyUpdates
// publishes the next one by pointer swap, and every search reads a Snapshot,
// never the Graph itself, so no search can see part of a batch.
//
// Topology still evolves, copy-on-write: ApplyTopology derives a new Graph
// with a batch of vertex/edge inserts and deletes applied.  Ids are stable
// across derivations — deleted edges remain as tombstones (EdgeAlive reports
// false) and deleted vertices remain as isolated ids — so identifiers in
// logs, WAL records, and client requests stay meaningful across epochs.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// VertexID identifies a vertex.  Vertices are numbered 0..NumVertices-1.
type VertexID int32

// EdgeID identifies an edge.  Edges are numbered 0..NumEdges-1.  In an
// undirected graph a single EdgeID covers both directions of travel.
type EdgeID int32

// NoVertex is a sentinel VertexID meaning "none".
const NoVertex VertexID = -1

// NoEdge is a sentinel EdgeID meaning "none".
const NoEdge EdgeID = -1

// ErrEdgeDeleted is wrapped by every error that refuses an edge because a
// topology batch already deleted it: a second delete, or a weight update.
// Serving layers map it to a state conflict (the gateway returns 409).
var ErrEdgeDeleted = errors.New("edge already deleted")

// Arc is one directed adjacency entry: travelling from the owning vertex to
// To uses edge Edge.
type Arc struct {
	To   VertexID
	Edge EdgeID
}

// Endpoints records the two endpoints of an edge as constructed.  For
// undirected graphs the order (U, V) is the insertion order and carries no
// semantic meaning.
type Endpoints struct {
	U, V VertexID
}

// Edge describes an edge for graph construction.
type Edge struct {
	U, V   VertexID
	Weight float64
}

// Graph is a weighted graph: immutable topology plus a pointer to the
// Snapshot of its current edge weights.  The zero value is not usable;
// construct with a Builder.
type Graph struct {
	directed bool
	numV     int
	arcOff   []int32     // v's arcs are arcs[arcOff[v]:arcOff[v+1]]; length numV+1
	arcs     []Arc       // every vertex's arcs (live edges only), in edge-id order
	ends     []Endpoints // edge id -> endpoints
	initW    []float64   // initial weights w0 (fixed; defines vfrag counts)
	alive    []bool      // edge tombstones; nil means every edge is alive
	numLive  int         // number of live edges

	writeMu sync.Mutex               // serialises ApplyUpdates
	cur     atomic.Pointer[Snapshot] // the current weights
}

// Builder accumulates vertices and edges and produces an immutable-topology
// Graph.  It is not safe for concurrent use.
type Builder struct {
	directed bool
	numV     int
	edges    []Edge
	dead     []EdgeID
}

// NewBuilder returns a Builder for a graph with n vertices numbered 0..n-1.
// If directed is false, each added edge is traversable in both directions and
// shares one weight.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{directed: directed, numV: n}
}

// AddEdge adds an edge from u to v with the given non-negative weight.
// It returns the EdgeID the edge will have in the built graph.
func (b *Builder) AddEdge(u, v VertexID, w float64) (EdgeID, error) {
	if u < 0 || int(u) >= b.numV || v < 0 || int(v) >= b.numV {
		return NoEdge, fmt.Errorf("graph: edge (%d,%d) references vertex outside [0,%d)", u, v, b.numV)
	}
	if u == v {
		return NoEdge, fmt.Errorf("graph: self-loop on vertex %d not allowed", u)
	}
	if w < 0 {
		return NoEdge, fmt.Errorf("graph: negative weight %g on edge (%d,%d)", w, u, v)
	}
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{U: u, V: v, Weight: w})
	return id, nil
}

// NumEdges reports the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// MarkDead records that edge id, already added via AddEdge, is a tombstone:
// the built graph keeps its endpoints and weights (so ids round-trip through
// serialization) but excludes it from adjacency and rejects weight updates
// on it.  Used when decoding snapshots of graphs that have seen topology
// deletions.
func (b *Builder) MarkDead(id EdgeID) error {
	if id < 0 || int(id) >= len(b.edges) {
		return fmt.Errorf("graph: MarkDead edge %d outside [0,%d)", id, len(b.edges))
	}
	b.dead = append(b.dead, id)
	return nil
}

// Build constructs the Graph.  The Builder may be reused afterwards, but
// edges added later do not affect already built graphs.
func (b *Builder) Build() *Graph {
	g := &Graph{
		directed: b.directed,
		numV:     b.numV,
		ends:     make([]Endpoints, len(b.edges)),
		initW:    make([]float64, len(b.edges)),
	}
	for i, e := range b.edges {
		g.ends[i] = Endpoints{U: e.U, V: e.V}
		g.initW[i] = e.Weight
	}
	// The first snapshot shares initW: no snapshot's weights are written in
	// place (ApplyUpdates clones them, ApplyTopology builds a new array).
	g.cur.Store(&Snapshot{g: g, weights: g.initW})
	if len(b.dead) > 0 {
		g.alive = make([]bool, len(b.edges))
		for i := range g.alive {
			g.alive[i] = true
		}
		for _, id := range b.dead {
			g.alive[id] = false
		}
	}
	g.rebuildAdjacency()
	return g
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.numV }

// NumEdges returns the number of edge ids, including tombstones of deleted
// edges.  Use NumLiveEdges for the count of traversable edges.
func (g *Graph) NumEdges() int { return len(g.ends) }

// NumLiveEdges returns the number of live (non-deleted) edges.
func (g *Graph) NumLiveEdges() int { return g.numLive }

// EdgeAlive reports whether edge e exists and has not been deleted by a
// topology update.
func (g *Graph) EdgeAlive(e EdgeID) bool {
	if e < 0 || int(e) >= len(g.ends) {
		return false
	}
	return g.alive == nil || g.alive[e]
}

// Neighbors returns the arcs leaving v, in edge-id order.  The returned slice
// is a view of the graph's shared arc array and must not be modified; its
// capacity ends with v's arcs, so an append by the caller copies instead of
// overwriting the next vertex's.
func (g *Graph) Neighbors(v VertexID) []Arc {
	lo, hi := g.arcOff[v], g.arcOff[v+1]
	return g.arcs[lo:hi:hi]
}

// Degree returns the number of arcs leaving v.
func (g *Graph) Degree(v VertexID) int { return int(g.arcOff[v+1] - g.arcOff[v]) }

// EdgeEndpoints returns the endpoints of edge e.
func (g *Graph) EdgeEndpoints(e EdgeID) Endpoints { return g.ends[e] }

// EdgeBetween returns the edge connecting u and v, if any.  For directed
// graphs only the u->v direction is considered.
func (g *Graph) EdgeBetween(u, v VertexID) (EdgeID, bool) {
	for _, a := range g.Neighbors(u) {
		if a.To == v {
			return a.Edge, true
		}
	}
	return NoEdge, false
}

// InitialWeight returns the initial weight w0 of edge e (the weight at index
// construction time, which defines the number of virtual fragments).
func (g *Graph) InitialWeight(e EdgeID) float64 { return g.initW[e] }

// WeightUpdate describes a change of a single edge weight to a new absolute
// value.
type WeightUpdate struct {
	Edge      EdgeID
	NewWeight float64
}

// ApplyUpdates validates a batch of weight updates and, if every update is
// valid, publishes the next Snapshot: the current weights with the batch
// applied in order, so an edge named twice takes its last weight.  Readers
// holding an earlier Snapshot keep it unchanged.  Concurrent calls are
// serialised; an empty batch publishes nothing.
func (g *Graph) ApplyUpdates(batch []WeightUpdate) error {
	for _, u := range batch {
		if u.NewWeight < 0 {
			return fmt.Errorf("graph: negative weight %g for edge %d", u.NewWeight, u.Edge)
		}
		if u.Edge < 0 || int(u.Edge) >= len(g.ends) {
			return fmt.Errorf("graph: edge %d out of range [0,%d)", u.Edge, len(g.ends))
		}
		if !g.EdgeAlive(u.Edge) {
			return fmt.Errorf("graph: weight update on edge %d: %w", u.Edge, ErrEdgeDeleted)
		}
	}
	if len(batch) == 0 {
		return nil
	}
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	w := slices.Clone(g.cur.Load().weights)
	for _, u := range batch {
		w[u.Edge] = u.NewWeight
	}
	g.cur.Store(&Snapshot{g: g, weights: w})
	return nil
}

// Snapshot returns the current weights together with the graph topology.
// This models the buffer G_curr of the paper: queries are answered against
// the most recent snapshot.  It returns the same pointer until the next
// ApplyUpdates, so answers cached on it are shared by every reader.
func (g *Graph) Snapshot() *Snapshot { return g.cur.Load() }

// Edges returns a copy of all edges with their current weights, sorted by
// EdgeID.  Intended for diagnostics and serialization, not hot paths.
func (g *Graph) Edges() []Edge {
	w := g.Snapshot().weights
	out := make([]Edge, len(g.ends))
	for i, e := range g.ends {
		out[i] = Edge{U: e.U, V: e.V, Weight: w[i]}
	}
	return out
}

// Snapshot is an immutable set of the graph's edge weights, published by
// ApplyUpdates.  Snapshots share the (immutable) topology with the parent
// graph and are safe for concurrent use.  Each snapshot also carries the snapshot
// cache: k-shortest-path answers computed on it (see CachedPaths).
type Snapshot struct {
	g       *Graph
	weights []float64

	cacheMu sync.Mutex
	cache   map[[2]VertexID]cachedPaths // nil until the first CachePaths
}

// Directed reports whether the underlying graph is directed.
func (s *Snapshot) Directed() bool { return s.g.directed }

// NumVertices returns the number of vertices.
func (s *Snapshot) NumVertices() int { return s.g.numV }

// NumEdges returns the number of edges.
func (s *Snapshot) NumEdges() int { return len(s.weights) }

// Neighbors returns the arcs leaving v (see Graph.Neighbors).
func (s *Snapshot) Neighbors(v VertexID) []Arc { return s.g.Neighbors(v) }

// Weight returns the weight of edge e in this snapshot.
func (s *Snapshot) Weight(e EdgeID) float64 { return s.weights[e] }

// InitialWeight returns the initial weight w0 of edge e.
func (s *Snapshot) InitialWeight(e EdgeID) float64 { return s.g.initW[e] }

// EdgeEndpoints returns the endpoints of edge e.
func (s *Snapshot) EdgeEndpoints(e EdgeID) Endpoints { return s.g.ends[e] }

// EdgeBetween returns the edge connecting u and v, if any.
func (s *Snapshot) EdgeBetween(u, v VertexID) (EdgeID, bool) { return s.g.EdgeBetween(u, v) }

// EdgeAlive reports whether edge e exists and has not been deleted.
func (s *Snapshot) EdgeAlive(e EdgeID) bool { return s.g.EdgeAlive(e) }

// Graph returns the parent graph of this snapshot.
func (s *Snapshot) Graph() *Graph { return s.g }

// WeightedView is the read interface of a set of weights over a topology;
// algorithms that only need to read the graph accept a WeightedView.
// Snapshot implements it and Graph does not, so every search names the
// immutable weights it runs over.
type WeightedView interface {
	Directed() bool
	NumVertices() int
	NumEdges() int
	Neighbors(v VertexID) []Arc
	Weight(e EdgeID) float64
	InitialWeight(e EdgeID) float64
	EdgeEndpoints(e EdgeID) Endpoints
	EdgeBetween(u, v VertexID) (EdgeID, bool)
}

var _ WeightedView = (*Snapshot)(nil)

// SortedArcs returns the arcs of v ordered by destination vertex.  It
// allocates; use Neighbors on hot paths.
func SortedArcs(v WeightedView, u VertexID) []Arc {
	arcs := append([]Arc(nil), v.Neighbors(u)...)
	sort.Slice(arcs, func(i, j int) bool { return arcs[i].To < arcs[j].To })
	return arcs
}
