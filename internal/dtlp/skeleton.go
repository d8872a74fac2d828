package dtlp

import (
	"cmp"
	"fmt"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
)

// Skeleton is the second level of DTLP: the skeleton graph Gλ (Section 3.6).
// Its vertices are the boundary vertices of all subgraphs; two vertices are
// connected iff they are boundary vertices of a common subgraph with a finite
// lower bound distance, and the edge weight is the minimum lower bound
// distance (MBD) between them.
//
// The skeleton's topology is fixed once built (bounding paths, and hence
// reachability within subgraphs, do not depend on weights); only the edge
// weights change as the underlying graph evolves, written by the index's
// single writer in one graph.ApplyUpdates per batch.  A Skeleton is safe for
// concurrent readers.
type Skeleton struct {
	directed bool
	// g is the skeleton graph over compact skeleton vertex ids.
	g *graph.Graph
	// globals maps skeleton vertex id -> global boundary vertex id.
	globals []graph.VertexID
	toSkel  map[graph.VertexID]graph.VertexID
}

// buildSkeleton constructs the skeleton graph from the global boundary pairs,
// sorted by (A, B), and their MBDs: one edge per pair with a finite MBD, in
// pair order.  It returns each pair's skeleton edge, graph.NoEdge for the
// pairs without one.
func buildSkeleton(part *partition.Partition, pairs []PairKey, mbd []float64, directed bool) (*Skeleton, []graph.EdgeID, error) {
	boundary := part.BoundaryVertices()
	s := &Skeleton{
		directed: directed,
		globals:  append([]graph.VertexID(nil), boundary...),
		toSkel:   make(map[graph.VertexID]graph.VertexID, len(boundary)),
	}
	for i, v := range s.globals {
		s.toSkel[v] = graph.VertexID(i)
	}
	b := graph.NewBuilder(len(s.globals), directed)
	pairEdge := make([]graph.EdgeID, len(pairs))
	for i, k := range pairs {
		pairEdge[i] = graph.NoEdge
		if mbd[i] == infValue {
			continue
		}
		sa, okA := s.toSkel[k.A]
		sb, okB := s.toSkel[k.B]
		if !okA || !okB {
			return nil, nil, fmt.Errorf("dtlp: pair (%d,%d) references non-boundary vertex", k.A, k.B)
		}
		e, err := b.AddEdge(sa, sb, mbd[i])
		if err != nil {
			return nil, nil, fmt.Errorf("dtlp: building skeleton: %w", err)
		}
		pairEdge[i] = e
	}
	s.g = b.Build()
	return s, pairEdge, nil
}

// comparePairKeys orders pair keys by (A, B).
func comparePairKeys(x, y PairKey) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// Graph returns the underlying skeleton graph (vertices are skeleton ids).
func (s *Skeleton) Graph() *graph.Graph { return s.g }

// Directed reports whether the skeleton graph is directed.
func (s *Skeleton) Directed() bool { return s.directed }

// NumVertices returns the number of skeleton vertices (boundary vertices).
func (s *Skeleton) NumVertices() int { return len(s.globals) }

// NumEdges returns the number of skeleton edges.
func (s *Skeleton) NumEdges() int { return s.g.NumEdges() }

// SkelID translates a global boundary vertex to its skeleton id.
func (s *Skeleton) SkelID(global graph.VertexID) (graph.VertexID, bool) {
	id, ok := s.toSkel[global]
	return id, ok
}

// GlobalID translates a skeleton id back to the global vertex id.
func (s *Skeleton) GlobalID(skel graph.VertexID) graph.VertexID { return s.globals[skel] }

// GlobalPath translates a path over skeleton ids into global vertex ids.
func (s *Skeleton) GlobalPath(p graph.Path) graph.Path {
	out := graph.Path{Vertices: make([]graph.VertexID, len(p.Vertices)), Dist: p.Dist}
	for i, v := range p.Vertices {
		out.Vertices[i] = s.globals[v]
	}
	return out
}
