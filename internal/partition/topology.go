package partition

import (
	"fmt"
	"slices"
	"sort"

	"kspdg/internal/graph"
)

// ApplyTopology derives a new Partition over newParent, the graph returned by
// the old parent's ApplyTopology for the same update.  inserted and deleted
// are the edge id lists that call returned (inserted aligned with
// up.InsertEdges, deleted including vertex-expansion deletions).
//
// The derivation is copy-on-write and incremental: subgraphs whose vertex and
// edge membership is unchanged are shared by pointer with the old partition,
// so their Local graphs (and any weight snapshots taken of them) stay valid.
// The returned id list names every subgraph whose bounding-path index must be
// rebuilt — those with changed membership plus those whose boundary vertex
// set shifted (the latter are shallow-copied with a fresh Boundary).
//
// Inserted edges are routed deterministically:
//
//  1. the lowest-id subgraph already containing both endpoints, else
//  2. the subgraph containing one endpoint with room for the other
//     (fewest vertices first, ties to the lowest id), else
//  3. the lowest-id empty subgraph — or a brand-new one appended at the end —
//     which takes both endpoints.
//
// Subgraph ids are stable: a subgraph emptied by vertex deletions persists as
// an empty tombstone (reusable by rule 3), and new vertices that arrive with
// no inserted edge remain unassigned until an edge connects them.
func (p *Partition) ApplyTopology(newParent *graph.Graph, up graph.TopologyUpdate, inserted, deleted []graph.EdgeID) (*Partition, []SubgraphID, error) {
	if newParent.NumVertices() < p.parent.NumVertices() || newParent.NumEdges() < p.parent.NumEdges() {
		return nil, nil, fmt.Errorf("partition: new parent (%dv,%de) smaller than old (%dv,%de)",
			newParent.NumVertices(), newParent.NumEdges(), p.parent.NumVertices(), p.parent.NumEdges())
	}
	if len(inserted) != len(up.InsertEdges) {
		return nil, nil, fmt.Errorf("partition: %d inserted edge ids for %d InsertEdges", len(inserted), len(up.InsertEdges))
	}
	delVerts := make(map[graph.VertexID]bool, len(up.DeleteVertices))
	for _, v := range up.DeleteVertices {
		delVerts[v] = true
	}
	delEdges := make(map[graph.EdgeID]bool, len(deleted))
	for _, e := range deleted {
		delEdges[e] = true
	}

	// Working membership per subgraph: the old assignment minus deletions.
	type subState struct {
		verts   []graph.VertexID
		inSet   map[graph.VertexID]bool
		edges   []graph.EdgeID
		changed bool // vertex or edge membership changed
	}
	states := make([]*subState, len(p.Subgraphs))
	for i, sg := range p.Subgraphs {
		st := &subState{inSet: make(map[graph.VertexID]bool, len(sg.Globals))}
		for _, v := range sg.Globals {
			if delVerts[v] {
				st.changed = true
				continue
			}
			st.verts = append(st.verts, v)
			st.inSet[v] = true
		}
		for _, e := range sg.GlobalEdges {
			if delEdges[e] {
				st.changed = true
				continue
			}
			st.edges = append(st.edges, e)
		}
		states[i] = st
	}

	// vertex -> containing subgraphs over the post-deletion membership,
	// maintained as inserts route new vertices into subgraphs.
	vsubs := make(map[graph.VertexID][]SubgraphID)
	for i, st := range states {
		for _, v := range st.verts {
			vsubs[v] = append(vsubs[v], SubgraphID(i))
		}
	}
	addVertex := func(id SubgraphID, v graph.VertexID) {
		st := states[id]
		st.verts = append(st.verts, v)
		st.inSet[v] = true
		st.changed = true
		vsubs[v] = append(vsubs[v], id)
	}

	for _, e := range inserted {
		ends := newParent.EdgeEndpoints(e)
		u, v := ends.U, ends.V
		target := NoSubgraph
		for _, a := range vsubs[u] {
			if states[a].inSet[v] && (target == NoSubgraph || a < target) {
				target = a
			}
		}
		if target == NoSubgraph {
			best, bestSize := NoSubgraph, 0
			consider := func(id SubgraphID) {
				st := states[id]
				if len(st.verts)+1 > p.Z {
					return
				}
				if best == NoSubgraph || len(st.verts) < bestSize ||
					(len(st.verts) == bestSize && id < best) {
					best, bestSize = id, len(st.verts)
				}
			}
			for _, a := range vsubs[u] {
				consider(a)
			}
			for _, a := range vsubs[v] {
				consider(a)
			}
			if best != NoSubgraph {
				if !states[best].inSet[u] {
					addVertex(best, u)
				}
				if !states[best].inSet[v] {
					addVertex(best, v)
				}
				target = best
			}
		}
		if target == NoSubgraph {
			for id, st := range states {
				if len(st.verts) == 0 {
					target = SubgraphID(id)
					break
				}
			}
			if target == NoSubgraph {
				target = SubgraphID(len(states))
				states = append(states, &subState{inSet: make(map[graph.VertexID]bool, 2)})
			}
			addVertex(target, u)
			addVertex(target, v)
		}
		st := states[target]
		st.edges = append(st.edges, e)
		st.changed = true
	}

	np := newPartition(newParent, p.Z)
	touchedSet := make(map[SubgraphID]bool)
	np.Subgraphs = make([]*Subgraph, len(states))
	for i, st := range states {
		id := SubgraphID(i)
		if i < len(p.Subgraphs) && !st.changed {
			old := p.Subgraphs[i]
			np.Subgraphs[i] = old
			for le, ge := range old.GlobalEdges {
				np.edgeLoc[ge] = EdgeLocation{Subgraph: id, LocalEdge: graph.EdgeID(le)}
			}
			continue
		}
		touchedSet[id] = true
		sg, err := materializeSubgraph(newParent, id, st.verts, st.edges, np.edgeLoc)
		if err != nil {
			return nil, nil, err
		}
		np.Subgraphs[i] = sg
	}
	np.indexVertices(newParent.NumVertices())

	// Per-subgraph boundary lists.  A changed boundary set on an otherwise
	// unchanged subgraph still invalidates its bounding-path index, so such
	// subgraphs are shallow-copied (sharing Local and the id mappings) and
	// reported as touched.
	for i, sg := range np.Subgraphs {
		bnd := np.boundaryOf(sg)
		id := SubgraphID(i)
		if touchedSet[id] {
			sg.Boundary = bnd
			continue
		}
		if slices.Equal(bnd, sg.Boundary) {
			continue
		}
		cp := *sg
		cp.Boundary = bnd
		np.Subgraphs[i] = &cp
		touchedSet[id] = true
	}

	touched := make([]SubgraphID, 0, len(touchedSet))
	for id := range touchedSet {
		touched = append(touched, id)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	return np, touched, nil
}

// materializeSubgraph builds subgraph id from its global vertex and edge id
// lists, checking both against g, and registers its edges in edgeLoc.  The
// Local graph is built from the parent's initial weights and then brought up
// to its current weights (they differ once the graph has evolved).  Boundary
// is left for the caller.
func materializeSubgraph(g *graph.Graph, id SubgraphID, verts []graph.VertexID, edges []graph.EdgeID, edgeLoc []EdgeLocation) (*Subgraph, error) {
	n := g.NumVertices()
	sg := &Subgraph{
		ID:          id,
		Globals:     append([]graph.VertexID(nil), verts...),
		GlobalEdges: append([]graph.EdgeID(nil), edges...),
		toLocal:     make(map[graph.VertexID]graph.VertexID, len(verts)),
	}
	for li, gv := range sg.Globals {
		if int(gv) < 0 || int(gv) >= n {
			return nil, fmt.Errorf("partition: subgraph %d vertex %d outside [0,%d)", id, gv, n)
		}
		if _, dup := sg.toLocal[gv]; dup {
			return nil, fmt.Errorf("partition: subgraph %d lists vertex %d twice", id, gv)
		}
		sg.toLocal[gv] = graph.VertexID(li)
	}
	b := graph.NewBuilder(len(sg.Globals), g.Directed())
	for le, ge := range sg.GlobalEdges {
		if int(ge) < 0 || int(ge) >= g.NumEdges() {
			return nil, fmt.Errorf("partition: subgraph %d edge %d outside [0,%d)", id, ge, g.NumEdges())
		}
		ends := g.EdgeEndpoints(ge)
		lu, okU := sg.toLocal[ends.U]
		lv, okV := sg.toLocal[ends.V]
		if !okU || !okV {
			return nil, fmt.Errorf("partition: subgraph %d owns edge %d but misses an endpoint", id, ge)
		}
		if _, err := b.AddEdge(lu, lv, g.InitialWeight(ge)); err != nil {
			return nil, fmt.Errorf("partition: building subgraph %d: %w", id, err)
		}
		edgeLoc[ge] = EdgeLocation{Subgraph: id, LocalEdge: graph.EdgeID(le)}
	}
	sg.Local = b.Build()
	var updates []graph.WeightUpdate
	cur := g.Snapshot()
	for le, ge := range sg.GlobalEdges {
		if w := cur.Weight(ge); w != g.InitialWeight(ge) {
			updates = append(updates, graph.WeightUpdate{Edge: graph.EdgeID(le), NewWeight: w})
		}
	}
	if len(updates) > 0 {
		if err := sg.Local.ApplyUpdates(updates); err != nil {
			return nil, err
		}
	}
	return sg, nil
}
