package shortest

// Textbook Yen, kept as the reference the kernel is compared against: one
// spur search per vertex of the previous path (no Lawler start index), plain
// Dijkstra, bans in maps consulted on every relaxed arc, a fresh O(n) search
// state per search, a linear scan over the produced paths per spur vertex,
// and container/heap for the candidates.  It is the implementation Yen and
// Generator shipped before the kernel was rebuilt, with two corrections: a
// key a caller maps to false in Forbidden* is not forbidden, as the
// first-path search always had it (the old spur searches banned every key);
// and a spur search bans the next vertices of the produced paths sharing its
// root, not the edge ids EdgeBetween reports for those hops, pricing each
// root hop by its cheapest parallel arc — on a multigraph an edge-id ban let
// a parallel arc re-find the banned hop, and the dedup set then threw away
// the candidate that should have been found instead.

import (
	"container/heap"
	"math"

	"kspdg/internal/graph"
)

func refVertexForbidden(o *Options, u graph.VertexID) bool {
	return o != nil && o.ForbiddenVertices != nil && o.ForbiddenVertices[u]
}

func refEdgeForbidden(o *Options, e graph.EdgeID) bool {
	return o != nil && o.ForbiddenEdges != nil && o.ForbiddenEdges[e]
}

// refHop is the length of the cheapest arc from u to w the caller allows.
func refHop(v graph.WeightedView, u, w graph.VertexID, opts *Options) float64 {
	weight := opts.weightFn(v)
	d := math.Inf(1)
	for _, a := range v.Neighbors(u) {
		if a.To == w && !refEdgeForbidden(opts, a.Edge) && weight(a.Edge) < d {
			d = weight(a.Edge)
		}
	}
	return d
}

// refShortestPath is Dijkstra with early exit at t on freshly filled arrays;
// it does not enter the vertices in spurNext directly from s.  refSearches,
// when non-nil, counts the calls.
func refShortestPath(v graph.WeightedView, s, t graph.VertexID, opts *Options, spurNext map[graph.VertexID]bool, refSearches *int) (graph.Path, bool) {
	if refSearches != nil {
		*refSearches++
	}
	if s == t {
		return graph.Path{Vertices: []graph.VertexID{s}}, true
	}
	n := v.NumVertices()
	dist := make([]float64, n)
	parent := make([]graph.VertexID, n)
	settled := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = graph.NoVertex
	}
	weight := opts.weightFn(v)
	dist[s] = 0
	pq := new(vertexHeap)
	pq.push(s, 0)
	for pq.len() > 0 {
		u, du := pq.pop()
		if settled[u] {
			continue
		}
		settled[u] = true
		if u == t {
			break
		}
		for _, a := range v.Neighbors(u) {
			if settled[a.To] || refVertexForbidden(opts, a.To) || refEdgeForbidden(opts, a.Edge) || (u == s && spurNext[a.To]) {
				continue
			}
			nd := du + weight(a.Edge)
			if nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = u
				pq.push(a.To, nd)
			}
		}
	}
	if math.IsInf(dist[t], 1) {
		return graph.Path{}, false
	}
	var rev []graph.VertexID
	for u := t; u != graph.NoVertex; u = parent[u] {
		rev = append(rev, u)
		if u == s {
			break
		}
	}
	verts := make([]graph.VertexID, len(rev))
	for i, u := range rev {
		verts[len(rev)-1-i] = u
	}
	return graph.Path{Vertices: verts, Dist: dist[t]}, true
}

// refDeviate is one round of Yen's deviation step over every spur vertex of
// the last produced path.
func refDeviate(v graph.WeightedView, t graph.VertexID, produced []graph.Path, opts *Options, seen map[string]bool, candidates *refPathHeap, refSearches *int) {
	prev := produced[len(produced)-1]
	prefixDist := []float64{0}
	for i := 0; i+1 < len(prev.Vertices); i++ {
		prefixDist = append(prefixDist, prefixDist[i]+refHop(v, prev.Vertices[i], prev.Vertices[i+1], opts))
	}
	for j := 0; j < prev.Len(); j++ {
		spur := prev.Vertices[j]
		rootVerts := prev.Vertices[:j+1]

		banVerts := make(map[graph.VertexID]bool)
		banEdges := make(map[graph.EdgeID]bool)
		banNext := make(map[graph.VertexID]bool)
		spurOpts := &Options{ForbiddenVertices: banVerts, ForbiddenEdges: banEdges}
		if opts != nil {
			spurOpts.Weight = opts.Weight
			for u, forbidden := range opts.ForbiddenVertices {
				if forbidden {
					banVerts[u] = true
				}
			}
			for e, forbidden := range opts.ForbiddenEdges {
				if forbidden {
					banEdges[e] = true
				}
			}
		}
		for _, p := range produced {
			if p.Len() > j && refSamePrefix(p.Vertices, rootVerts) {
				banNext[p.Vertices[j+1]] = true
			}
		}
		for _, u := range rootVerts[:j] {
			banVerts[u] = true
		}

		spurPath, ok := refShortestPath(v, spur, t, spurOpts, banNext, refSearches)
		if !ok {
			continue
		}
		total := graph.Path{
			Vertices: append(append([]graph.VertexID(nil), rootVerts...), spurPath.Vertices[1:]...),
			Dist:     prefixDist[j] + spurPath.Dist,
		}
		if !total.IsSimple() {
			continue
		}
		if key := graph.PathKey(total); seen[key] {
			continue
		} else {
			seen[key] = true
		}
		heap.Push(candidates, total)
	}
}

// refYen is textbook Yen; it also reports how many spur searches it ran.
func refYen(v graph.WeightedView, s, t graph.VertexID, k int, opts *Options) (paths []graph.Path, spurSearches int) {
	if k <= 0 {
		return nil, 0
	}
	if s == t {
		return []graph.Path{{Vertices: []graph.VertexID{s}}}, 0
	}
	first, ok := refShortestPath(v, s, t, opts, nil, nil)
	if !ok {
		return nil, 0
	}
	result := []graph.Path{first}
	seen := map[string]bool{graph.PathKey(first): true}
	candidates := &refPathHeap{}
	for len(result) < k {
		refDeviate(v, t, result, opts, seen, candidates, &spurSearches)
		if candidates.Len() == 0 {
			break
		}
		result = append(result, heap.Pop(candidates).(graph.Path))
	}
	return result, spurSearches
}

func refSamePrefix(p, prefix []graph.VertexID) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

// refPathHeap is a min-heap of candidate paths ordered by ComparePaths.
type refPathHeap []graph.Path

func (h refPathHeap) Len() int            { return len(h) }
func (h refPathHeap) Less(i, j int) bool  { return graph.ComparePaths(h[i], h[j]) < 0 }
func (h refPathHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refPathHeap) Push(x interface{}) { *h = append(*h, x.(graph.Path)) }
func (h *refPathHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}
