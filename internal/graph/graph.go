// Package graph provides the dynamic weighted graph substrate used by the
// KSP-DG reproduction.  A Graph models a road network: vertices are
// intersections, edges are road segments, and edge weights are travel times
// that evolve over time (Definition 1 of the paper).
//
// The topology held by one Graph value is immutable: Snapshots alias its
// adjacency lists, so vertices and edges are never added or removed in place.
// Weight updates are applied through UpdateWeight / ApplyUpdates and are safe
// for concurrent use with readers.  Queries that need a consistent view of
// the weights take a Snapshot, which corresponds to the buffer G_curr
// described in Section 2 of the paper.
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
	"sort"
	"sync"
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

// Graph is a weighted graph with immutable topology and mutable edge weights.
// The zero value is not usable; construct with a Builder.
type Graph struct {
	directed bool
	numV     int
	adj      [][]Arc     // adjacency lists (live edges only), indexed by vertex
	ends     []Endpoints // edge id -> endpoints
	initW    []float64   // initial weights w0 (fixed; defines vfrag counts)
	alive    []bool      // edge tombstones; nil means every edge is alive
	numLive  int         // number of live edges

	mu      sync.RWMutex
	weights []float64 // current weights, guarded by mu
	version uint64    // incremented on every weight change batch
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
		weights:  make([]float64, len(b.edges)),
	}
	for i, e := range b.edges {
		g.ends[i] = Endpoints{U: e.U, V: e.V}
		g.initW[i] = e.Weight
		g.weights[i] = e.Weight
	}
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

// Neighbors returns the adjacency list of v.  The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(v VertexID) []Arc {
	return g.adj[v]
}

// Degree returns the number of arcs leaving v.
func (g *Graph) Degree(v VertexID) int { return len(g.adj[v]) }

// EdgeEndpoints returns the endpoints of edge e.
func (g *Graph) EdgeEndpoints(e EdgeID) Endpoints { return g.ends[e] }

// EdgeBetween returns the edge connecting u and v, if any.  For directed
// graphs only the u->v direction is considered.
func (g *Graph) EdgeBetween(u, v VertexID) (EdgeID, bool) {
	for _, a := range g.adj[u] {
		if a.To == v {
			return a.Edge, true
		}
	}
	return NoEdge, false
}

// InitialWeight returns the initial weight w0 of edge e (the weight at index
// construction time, which defines the number of virtual fragments).
func (g *Graph) InitialWeight(e EdgeID) float64 { return g.initW[e] }

// Weight returns the current weight of edge e.
func (g *Graph) Weight(e EdgeID) float64 {
	g.mu.RLock()
	w := g.weights[e]
	g.mu.RUnlock()
	return w
}

// CopyWeights copies the current weight of every edge into dst, growing it
// when it is too short, and returns it: one read lock for the whole array
// where a loop over Weight would take one per edge.
func (g *Graph) CopyWeights(dst []float64) []float64 {
	g.mu.RLock()
	dst = append(dst[:0], g.weights...)
	g.mu.RUnlock()
	return dst
}

// Version returns the current weight version.  The version increases by one
// for every successful UpdateWeight or ApplyUpdates call.
func (g *Graph) Version() uint64 {
	g.mu.RLock()
	v := g.version
	g.mu.RUnlock()
	return v
}

// WeightUpdate describes a change of a single edge weight to a new absolute
// value.
type WeightUpdate struct {
	Edge      EdgeID
	NewWeight float64
}

// UpdateWeight sets the weight of edge e to w.  It returns the signed change
// Δw relative to the previous weight.
func (g *Graph) UpdateWeight(e EdgeID, w float64) (float64, error) {
	if w < 0 {
		return 0, fmt.Errorf("graph: negative weight %g for edge %d", w, e)
	}
	if e < 0 || int(e) >= len(g.ends) {
		return 0, fmt.Errorf("graph: edge %d out of range [0,%d)", e, len(g.ends))
	}
	if !g.EdgeAlive(e) {
		return 0, fmt.Errorf("graph: weight update on edge %d: %w", e, ErrEdgeDeleted)
	}
	g.mu.Lock()
	delta := w - g.weights[e]
	g.weights[e] = w
	g.version++
	g.mu.Unlock()
	return delta, nil
}

// ApplyUpdates applies a batch of weight updates atomically with respect to
// Snapshot: a snapshot observes either all or none of the batch.
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
	g.mu.Lock()
	for _, u := range batch {
		g.weights[u.Edge] = u.NewWeight
	}
	g.version++
	g.mu.Unlock()
	return nil
}

// Snapshot returns an immutable, consistent view of the current edge weights
// together with the graph topology.  This models the buffer G_curr of the
// paper: queries are answered against the most recent snapshot.
func (g *Graph) Snapshot() *Snapshot {
	g.mu.RLock()
	w := make([]float64, len(g.weights))
	copy(w, g.weights)
	v := g.version
	g.mu.RUnlock()
	return &Snapshot{g: g, weights: w, version: v}
}

// Edges returns a copy of all edges with their current weights, sorted by
// EdgeID.  Intended for diagnostics and serialization, not hot paths.
func (g *Graph) Edges() []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Edge, len(g.ends))
	for i, e := range g.ends {
		out[i] = Edge{U: e.U, V: e.V, Weight: g.weights[i]}
	}
	return out
}

// Snapshot is a read-only consistent view of the graph weights at a point in
// time.  Snapshots share the (immutable) topology with the parent graph and
// are safe for concurrent use.  Each snapshot also carries the snapshot
// cache: k-shortest-path answers computed on it (see CachedPaths).
type Snapshot struct {
	g       *Graph
	weights []float64
	version uint64

	cacheMu sync.Mutex
	cache   map[[2]VertexID]cachedPaths // nil until the first CachePaths
}

// Directed reports whether the underlying graph is directed.
func (s *Snapshot) Directed() bool { return s.g.directed }

// NumVertices returns the number of vertices.
func (s *Snapshot) NumVertices() int { return s.g.numV }

// NumEdges returns the number of edges.
func (s *Snapshot) NumEdges() int { return len(s.weights) }

// Version returns the graph weight version this snapshot was taken at.
func (s *Snapshot) Version() uint64 { return s.version }

// Neighbors returns the adjacency list of v.
func (s *Snapshot) Neighbors(v VertexID) []Arc { return s.g.adj[v] }

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

// WeightedView is the read interface shared by Graph and Snapshot; algorithms
// that only need to read the graph accept a WeightedView so they can operate
// on either.
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

var (
	_ WeightedView = (*Graph)(nil)
	_ WeightedView = (*Snapshot)(nil)
)

// SortedArcs returns the arcs of v ordered by destination vertex.  It
// allocates; use Neighbors on hot paths.
func SortedArcs(v WeightedView, u VertexID) []Arc {
	arcs := append([]Arc(nil), v.Neighbors(u)...)
	sort.Slice(arcs, func(i, j int) bool { return arcs[i].To < arcs[j].To })
	return arcs
}
