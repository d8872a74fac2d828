package graph

import (
	"fmt"
	"sort"
)

// TopologyUpdate describes a batch of topology mutations: vertex additions,
// edge insertions, and edge/vertex deletions.  A batch is applied atomically
// by ApplyTopology in a fixed order:
//
//  1. AddVertices new vertices are appended (ids NumVertices..NumVertices+AddVertices-1),
//  2. DeleteVertices are removed by deleting every live edge incident to them,
//  3. DeleteEdges are removed,
//  4. InsertEdges are appended (ids NumEdges..NumEdges+len(InsertEdges)-1).
//
// Because deletions precede insertions, a batch may delete a vertex and then
// insert a new edge touching it: the vertex is resurrected with only the new
// edge.  Vertex ids are never reused or renumbered; a deleted vertex remains
// a valid (isolated) id forever, and edge ids of deleted edges remain valid
// tombstones (EdgeAlive reports false for them).
type TopologyUpdate struct {
	// AddVertices is the number of fresh vertices to append.
	AddVertices int
	// InsertEdges are new edges; Weight is both the initial weight w0
	// (defining the edge's virtual-fragment count) and the current weight.
	// Endpoints may reference vertices added by this same batch.
	InsertEdges []Edge
	// DeleteEdges lists edge ids to delete.  Each must be alive before the
	// batch; duplicates within DeleteEdges are an error, but overlap with
	// edges already covered by DeleteVertices is allowed.
	DeleteEdges []EdgeID
	// DeleteVertices lists vertices to delete.  Deleting a vertex deletes
	// all live edges incident to it (in either direction); the vertex id
	// itself persists as an isolated vertex.
	DeleteVertices []VertexID
}

// IsZero reports whether the update contains no mutations.
func (up *TopologyUpdate) IsZero() bool {
	return up.AddVertices == 0 && len(up.InsertEdges) == 0 &&
		len(up.DeleteEdges) == 0 && len(up.DeleteVertices) == 0
}

// ApplyTopology derives a new Graph from g with the batch applied.  The
// receiver is left untouched (existing Snapshots alias its adjacency, so
// topology is never mutated in place); callers swap the returned graph in as
// the new parent.  It returns the ids of the inserted edges (in InsertEdges
// order) and the sorted ids of all edges deleted by the batch, including
// edges deleted via DeleteVertices expansion.
//
// The weights of g's current Snapshot carry over to the new graph; a
// concurrent ApplyUpdates on g may or may not be visible, so callers that
// need a strict ordering must serialize topology and weight batches (dtlp's
// writer lock does).
func (g *Graph) ApplyTopology(up TopologyUpdate) (ng *Graph, inserted, deleted []EdgeID, err error) {
	if up.AddVertices < 0 {
		return nil, nil, nil, fmt.Errorf("graph: negative AddVertices %d", up.AddVertices)
	}
	newNumV := g.numV + up.AddVertices
	oldNumE := len(g.ends)
	newNumE := oldNumE + len(up.InsertEdges)

	// Validate against the pre-batch graph before building anything.
	delVerts := make(map[VertexID]bool, len(up.DeleteVertices))
	for _, v := range up.DeleteVertices {
		if v < 0 || int(v) >= newNumV {
			return nil, nil, nil, fmt.Errorf("graph: delete of vertex %d outside [0,%d)", v, newNumV)
		}
		delVerts[v] = true
	}
	explicit := make(map[EdgeID]bool, len(up.DeleteEdges))
	for _, e := range up.DeleteEdges {
		if e < 0 || int(e) >= oldNumE {
			return nil, nil, nil, fmt.Errorf("graph: delete of edge %d outside [0,%d)", e, oldNumE)
		}
		if !g.EdgeAlive(e) {
			return nil, nil, nil, fmt.Errorf("graph: delete of edge %d: %w", e, ErrEdgeDeleted)
		}
		if explicit[e] {
			return nil, nil, nil, fmt.Errorf("graph: duplicate delete of edge %d", e)
		}
		explicit[e] = true
	}
	for i, e := range up.InsertEdges {
		if e.U < 0 || int(e.U) >= newNumV || e.V < 0 || int(e.V) >= newNumV {
			return nil, nil, nil, fmt.Errorf("graph: inserted edge %d (%d,%d) references vertex outside [0,%d)", i, e.U, e.V, newNumV)
		}
		if e.U == e.V {
			return nil, nil, nil, fmt.Errorf("graph: inserted self-loop on vertex %d not allowed", e.U)
		}
		if e.Weight < 0 {
			return nil, nil, nil, fmt.Errorf("graph: negative weight %g on inserted edge (%d,%d)", e.Weight, e.U, e.V)
		}
	}

	// The new graph starts from the current weights.
	curW := make([]float64, newNumE)
	copy(curW, g.Snapshot().weights)

	alive := make([]bool, newNumE)
	if g.alive == nil {
		for i := 0; i < oldNumE; i++ {
			alive[i] = true
		}
	} else {
		copy(alive, g.alive)
	}

	// Vertex deletion expands to every live incident edge (both directions).
	delSet := make(map[EdgeID]bool)
	if len(delVerts) > 0 {
		for e := 0; e < oldNumE; e++ {
			if alive[e] && (delVerts[g.ends[e].U] || delVerts[g.ends[e].V]) {
				delSet[EdgeID(e)] = true
			}
		}
	}
	for e := range explicit {
		delSet[e] = true
	}
	deleted = make([]EdgeID, 0, len(delSet))
	for e := range delSet {
		alive[e] = false
		deleted = append(deleted, e)
	}
	sort.Slice(deleted, func(i, j int) bool { return deleted[i] < deleted[j] })

	ends := make([]Endpoints, newNumE)
	copy(ends, g.ends)
	initW := make([]float64, newNumE)
	copy(initW, g.initW)
	inserted = make([]EdgeID, len(up.InsertEdges))
	for i, e := range up.InsertEdges {
		id := EdgeID(oldNumE + i)
		ends[id] = Endpoints{U: e.U, V: e.V}
		initW[id] = e.Weight
		curW[id] = e.Weight
		alive[id] = true
		inserted[i] = id
	}

	ng = &Graph{
		directed: g.directed,
		numV:     newNumV,
		ends:     ends,
		initW:    initW,
		alive:    alive,
	}
	ng.cur.Store(&Snapshot{g: ng, weights: curW})
	ng.rebuildAdjacency()
	return ng, inserted, deleted, nil
}

// rebuildAdjacency recomputes g.arcOff, g.arcs and g.numLive from the live
// edges in two passes over the edge list: one counts each vertex's arcs, one
// places them.  Placing in edge-id order keeps every vertex's arcs in that
// order, which fixes search order and tie-breaking.
func (g *Graph) rebuildAdjacency() {
	off := make([]int32, g.numV+1)
	live := 0
	for e, ends := range g.ends {
		if g.alive != nil && !g.alive[e] {
			continue
		}
		live++
		off[ends.U+1]++
		if !g.directed {
			off[ends.V+1]++
		}
	}
	for v := 0; v < g.numV; v++ {
		off[v+1] += off[v]
	}
	// off[v] serves as v's insertion cursor, which leaves it at v's end,
	// that is at v+1's start; shifting by one restores the starts.
	g.arcs = make([]Arc, off[g.numV])
	for e, ends := range g.ends {
		if g.alive != nil && !g.alive[e] {
			continue
		}
		id := EdgeID(e)
		g.arcs[off[ends.U]] = Arc{To: ends.V, Edge: id}
		off[ends.U]++
		if !g.directed {
			g.arcs[off[ends.V]] = Arc{To: ends.U, Edge: id}
			off[ends.V]++
		}
	}
	copy(off[1:], off[:g.numV])
	off[0] = 0
	g.arcOff = off
	g.numLive = live
}
