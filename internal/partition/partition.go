// Package partition splits a road network into edge-disjoint subgraphs of
// bounded size, following Section 3.3 of the paper: every subgraph has at
// most z vertices, subgraphs may share vertices ("boundary vertices") but
// never edges, and the union of all subgraphs is the original graph.  The
// subgraphs are grown as regions, each a breadth-first ball of its own (see
// PartitionGraph), which keeps the boundary — and with it the skeleton and
// the bounding-path index built over it — small.
//
// Each Subgraph materialises its own local graph.Graph over compact local
// vertex indices so that shortest path searches inside a subgraph cost
// O(|subgraph|) rather than O(|G|).  The Partition keeps the mapping between
// global and local identifiers and propagates weight updates from the parent
// graph to the owning subgraph.
package partition

import (
	"fmt"
	"slices"

	"kspdg/internal/graph"
)

// SubgraphID identifies a subgraph within a Partition.
type SubgraphID int32

// NoSubgraph is a sentinel SubgraphID meaning "none".
const NoSubgraph SubgraphID = -1

// EdgeLocation records which subgraph owns a global edge and the edge's local
// identifier inside that subgraph.
type EdgeLocation struct {
	Subgraph  SubgraphID
	LocalEdge graph.EdgeID
}

// Subgraph is one partition element: a bounded-size local graph plus the
// mappings back to the parent graph.
type Subgraph struct {
	// ID is the subgraph's identifier within its Partition.
	ID SubgraphID
	// Local is the subgraph materialised over local vertex ids
	// 0..len(Globals)-1.  Its weights track the parent graph through
	// Partition.ApplyUpdates.
	Local *graph.Graph
	// Globals maps local vertex index -> global VertexID.
	Globals []graph.VertexID
	// GlobalEdges maps local edge index -> global EdgeID.
	GlobalEdges []graph.EdgeID
	// Boundary lists the global ids of this subgraph's boundary vertices
	// (vertices shared with at least one other subgraph), sorted ascending.
	Boundary []graph.VertexID

	toLocal map[graph.VertexID]graph.VertexID
}

// NumVertices returns the number of vertices in the subgraph.
func (s *Subgraph) NumVertices() int { return len(s.Globals) }

// NumEdges returns the number of edges owned by the subgraph.
func (s *Subgraph) NumEdges() int { return len(s.GlobalEdges) }

// ToLocal translates a global vertex id to the subgraph-local id.
func (s *Subgraph) ToLocal(v graph.VertexID) (graph.VertexID, bool) {
	l, ok := s.toLocal[v]
	return l, ok
}

// ToGlobal translates a subgraph-local vertex id to the global id.
func (s *Subgraph) ToGlobal(local graph.VertexID) graph.VertexID { return s.Globals[local] }

// Contains reports whether the subgraph contains global vertex v.
func (s *Subgraph) Contains(v graph.VertexID) bool {
	_, ok := s.toLocal[v]
	return ok
}

// GlobalPath translates a path expressed in local vertex ids into global ids.
func (s *Subgraph) GlobalPath(p graph.Path) graph.Path {
	out := graph.Path{Vertices: make([]graph.VertexID, len(p.Vertices)), Dist: p.Dist}
	for i, v := range p.Vertices {
		out.Vertices[i] = s.Globals[v]
	}
	return out
}

// LocalPath translates a path expressed in global vertex ids into local ids.
// It returns false if any vertex is not part of the subgraph.
func (s *Subgraph) LocalPath(p graph.Path) (graph.Path, bool) {
	out := graph.Path{Vertices: make([]graph.VertexID, len(p.Vertices)), Dist: p.Dist}
	for i, v := range p.Vertices {
		l, ok := s.toLocal[v]
		if !ok {
			return graph.Path{}, false
		}
		out.Vertices[i] = l
	}
	return out, true
}

// Partition is the result of partitioning a graph: the set of subgraphs plus
// global<->local mappings and boundary vertex bookkeeping.
type Partition struct {
	// Z is the maximum number of vertices per subgraph the partition was
	// built with.
	Z int
	// Subgraphs lists all subgraphs, indexed by SubgraphID.
	Subgraphs []*Subgraph

	parent     *graph.Graph
	edgeLoc    []EdgeLocation   // global edge -> location
	subOff     []int32          // v's subgraphs are subIDs[subOff[v]:subOff[v+1]]
	subIDs     []SubgraphID     // every vertex's subgraphs, ascending per vertex
	isBoundary []bool           // global vertex -> boundary flag
	boundary   []graph.VertexID // sorted global boundary vertices
}

// newPartition returns an empty partition of g with every edge unassigned.
func newPartition(g *graph.Graph, z int) *Partition {
	p := &Partition{Z: z, parent: g, edgeLoc: make([]EdgeLocation, g.NumEdges())}
	for i := range p.edgeLoc {
		p.edgeLoc[i] = EdgeLocation{Subgraph: NoSubgraph, LocalEdge: graph.NoEdge}
	}
	return p
}

// PartitionGraph partitions g into subgraphs with at most z vertices each by
// region growing: every subgraph is a breadth-first ball of its own, seeded
// at the smallest-id vertex that still has an unassigned edge.  An edge that
// would take the ball past z vertices is skipped, and a later ball picks it
// up.  A ball is compact, so its boundary — the vertices it shares with other
// balls — is its rim rather than both long sides of one sweep's wave, and the
// skeleton, the bounding paths and the EP-Index all scale with the boundary.
// z must be at least 2 (an edge needs two vertices).
func PartitionGraph(g *graph.Graph, z int) (*Partition, error) {
	if z < 2 {
		return nil, fmt.Errorf("partition: z = %d, need at least 2", z)
	}
	edgeAssigned := make([]bool, g.NumEdges())
	// ball[v] is 1 + the index of the last subgraph v joined, so membership
	// in the current ball needs no per-ball set.
	ball := make([]int, g.NumVertices())
	var subVerts [][]graph.VertexID
	var subEdges [][]graph.EdgeID
	for seed := graph.VertexID(0); int(seed) < g.NumVertices(); {
		if !hasUnassignedEdge(g, seed, edgeAssigned) {
			seed++
			continue
		}
		mark := len(subVerts) + 1
		ball[seed] = mark
		verts := []graph.VertexID{seed}
		var edges []graph.EdgeID
		for head := 0; head < len(verts); head++ {
			for _, a := range g.Neighbors(verts[head]) {
				if edgeAssigned[a.Edge] {
					continue
				}
				if ball[a.To] != mark {
					if len(verts) == z {
						continue
					}
					ball[a.To] = mark
					verts = append(verts, a.To)
				}
				edges = append(edges, a.Edge)
				edgeAssigned[a.Edge] = true
			}
		}
		subVerts = append(subVerts, verts)
		subEdges = append(subEdges, edges)
	}
	return assemble(g, z, subVerts, subEdges)
}

// Assemble reconstructs a Partition from an explicit subgraph assignment:
// subVerts[i] and subEdges[i] list the global vertex and edge ids of subgraph
// i.  It materialises the same structures PartitionGraph produces from its
// grown regions and validates every structural invariant, so a
// serialized assignment (internal/store snapshots) round-trips exactly even
// if the partitioning heuristic changes between versions.  Local subgraph
// weights are brought up to the parent's current weights.
func Assemble(parent *graph.Graph, z int, subVerts [][]graph.VertexID, subEdges [][]graph.EdgeID) (*Partition, error) {
	if z < 2 {
		return nil, fmt.Errorf("partition: z = %d, need at least 2", z)
	}
	if len(subVerts) != len(subEdges) {
		return nil, fmt.Errorf("partition: %d vertex lists but %d edge lists", len(subVerts), len(subEdges))
	}
	p, err := assemble(parent, z, subVerts, subEdges)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("partition: assembled partition invalid: %w", err)
	}
	return p, nil
}

// assemble materialises subgraphs from per-subgraph vertex/edge id lists and
// derives the boundary bookkeeping.  It is shared by PartitionGraph (whose
// grower guarantees the invariants) and Assemble (which validates them).
func assemble(g *graph.Graph, z int, subVerts [][]graph.VertexID, subEdges [][]graph.EdgeID) (*Partition, error) {
	p := newPartition(g, z)
	p.Subgraphs = make([]*Subgraph, len(subVerts))
	for i := range subVerts {
		sg, err := materializeSubgraph(g, SubgraphID(i), subVerts[i], subEdges[i], p.edgeLoc)
		if err != nil {
			return nil, err
		}
		p.Subgraphs[i] = sg
	}
	p.indexVertices(g.NumVertices())
	for _, sg := range p.Subgraphs {
		sg.Boundary = p.boundaryOf(sg)
	}
	return p, nil
}

// indexVertices derives, over n global vertices, the vertex -> subgraph table
// and the boundary from p.Subgraphs, in two passes and without a per-vertex
// allocation.  Subgraphs are walked in id order, so each vertex's list is
// ascending; the boundary is collected by vertex, so it comes out sorted.
func (p *Partition) indexVertices(n int) {
	off := make([]int32, n+1)
	for _, sg := range p.Subgraphs {
		for _, v := range sg.Globals {
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// off[v] serves as v's insertion cursor, which leaves it at v+1's start;
	// shifting by one restores the starts.
	p.subIDs = make([]SubgraphID, off[n])
	for _, sg := range p.Subgraphs {
		for _, v := range sg.Globals {
			p.subIDs[off[v]] = sg.ID
			off[v]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	p.subOff = off
	p.isBoundary = make([]bool, n)
	for v := 0; v < n; v++ {
		if off[v+1]-off[v] > 1 {
			p.isBoundary[v] = true
			p.boundary = append(p.boundary, graph.VertexID(v))
		}
	}
}

// boundaryOf returns sg's boundary vertices, sorted ascending.
func (p *Partition) boundaryOf(sg *Subgraph) []graph.VertexID {
	var bnd []graph.VertexID
	for _, gv := range sg.Globals {
		if p.isBoundary[gv] {
			bnd = append(bnd, gv)
		}
	}
	slices.Sort(bnd)
	return bnd
}

func hasUnassignedEdge(g *graph.Graph, v graph.VertexID, assigned []bool) bool {
	for _, a := range g.Neighbors(v) {
		if !assigned[a.Edge] {
			return true
		}
	}
	return false
}

// Parent returns the graph this partition was built from.
func (p *Partition) Parent() *graph.Graph { return p.parent }

// NumSubgraphs returns the number of subgraphs.
func (p *Partition) NumSubgraphs() int { return len(p.Subgraphs) }

// Subgraph returns the subgraph with the given id.
func (p *Partition) Subgraph(id SubgraphID) *Subgraph { return p.Subgraphs[id] }

// IsBoundary reports whether global vertex v is a boundary vertex.
func (p *Partition) IsBoundary(v graph.VertexID) bool { return p.isBoundary[v] }

// BoundaryVertices returns all boundary vertices, sorted ascending.  The
// returned slice is owned by the partition and must not be modified.
func (p *Partition) BoundaryVertices() []graph.VertexID { return p.boundary }

// SubgraphsOf returns the ids of the subgraphs containing global vertex v,
// ascending, or nil if v is not a vertex of the parent graph.  The returned
// slice is owned by the partition and must not be modified.
func (p *Partition) SubgraphsOf(v graph.VertexID) []SubgraphID {
	if v < 0 || int(v) >= len(p.subOff)-1 {
		return nil
	}
	lo, hi := p.subOff[v], p.subOff[v+1]
	return p.subIDs[lo:hi:hi]
}

// Locate returns the owning subgraph and local edge id of global edge e.
func (p *Partition) Locate(e graph.EdgeID) EdgeLocation { return p.edgeLoc[e] }

// ApplyUpdates propagates a batch of global weight updates to the owning
// subgraphs' local graphs, one graph.ApplyUpdates per subgraph the batch
// names, and returns the translated batches indexed by SubgraphID (nil for
// the subgraphs it does not name).  The parent graph itself is not modified
// (callers typically update the parent first and then propagate).
func (p *Partition) ApplyUpdates(batch []graph.WeightUpdate) ([][]graph.WeightUpdate, error) {
	perSub := make([][]graph.WeightUpdate, len(p.Subgraphs))
	for _, u := range batch {
		if int(u.Edge) < 0 || int(u.Edge) >= len(p.edgeLoc) {
			return nil, fmt.Errorf("partition: update for unknown edge %d", u.Edge)
		}
		loc := p.edgeLoc[u.Edge]
		if loc.Subgraph == NoSubgraph {
			return nil, fmt.Errorf("partition: edge %d not assigned to any subgraph", u.Edge)
		}
		perSub[loc.Subgraph] = append(perSub[loc.Subgraph], graph.WeightUpdate{Edge: loc.LocalEdge, NewWeight: u.NewWeight})
	}
	for id, ups := range perSub {
		if len(ups) == 0 {
			continue
		}
		if err := p.Subgraphs[id].Local.ApplyUpdates(ups); err != nil {
			return nil, err
		}
	}
	return perSub, nil
}

// Validate checks the structural invariants of the partition against its
// parent graph: every edge belongs to exactly one subgraph, edge endpoints
// are vertices of the owning subgraph, no subgraph exceeds z vertices, and
// boundary flags are consistent.  Intended for tests and debugging.
func (p *Partition) Validate() error {
	seen := make([]bool, p.parent.NumEdges())
	for _, sg := range p.Subgraphs {
		if len(sg.Globals) > p.Z {
			return fmt.Errorf("subgraph %d has %d vertices, exceeds z=%d", sg.ID, len(sg.Globals), p.Z)
		}
		for le, ge := range sg.GlobalEdges {
			if seen[ge] {
				return fmt.Errorf("edge %d assigned to more than one subgraph", ge)
			}
			if !p.parent.EdgeAlive(ge) {
				return fmt.Errorf("deleted edge %d assigned to subgraph %d", ge, sg.ID)
			}
			seen[ge] = true
			ends := p.parent.EdgeEndpoints(ge)
			if !sg.Contains(ends.U) || !sg.Contains(ends.V) {
				return fmt.Errorf("subgraph %d owns edge %d but misses an endpoint", sg.ID, ge)
			}
			loc := p.edgeLoc[ge]
			if loc.Subgraph != sg.ID || loc.LocalEdge != graph.EdgeID(le) {
				return fmt.Errorf("edge %d location mismatch", ge)
			}
		}
	}
	for e, ok := range seen {
		if !ok && p.parent.EdgeAlive(graph.EdgeID(e)) {
			return fmt.Errorf("edge %d not assigned to any subgraph", e)
		}
	}
	for v := graph.VertexID(0); int(v) < p.parent.NumVertices(); v++ {
		want := len(p.SubgraphsOf(v)) > 1
		if p.isBoundary[v] != want {
			return fmt.Errorf("vertex %d boundary flag %v inconsistent with membership count %d",
				v, p.isBoundary[v], len(p.SubgraphsOf(v)))
		}
	}
	return nil
}

// Stats summarises a partition for reporting (Table 1 of the paper).
type Stats struct {
	NumSubgraphs          int
	NumBoundaryVertices   int
	SubgraphsWithOver5Bnd int // number of subgraphs with more than five boundary vertices
	MaxSubgraphVertices   int
	AvgSubgraphVertices   float64
}

// ComputeStats returns summary statistics of the partition.
func (p *Partition) ComputeStats() Stats {
	st := Stats{NumSubgraphs: len(p.Subgraphs), NumBoundaryVertices: len(p.boundary)}
	total := 0
	for _, sg := range p.Subgraphs {
		total += len(sg.Globals)
		if len(sg.Globals) > st.MaxSubgraphVertices {
			st.MaxSubgraphVertices = len(sg.Globals)
		}
		if len(sg.Boundary) > 5 {
			st.SubgraphsWithOver5Bnd++
		}
	}
	if len(p.Subgraphs) > 0 {
		st.AvgSubgraphVertices = float64(total) / float64(len(p.Subgraphs))
	}
	return st
}
