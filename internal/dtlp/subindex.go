package dtlp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
)

var infValue = math.Inf(1)

// BoundingPath is one indexed bounding path between two boundary vertices of
// a subgraph (Section 3.4), as the read accessors of SubgraphIndex return it.
// The index does not hold BoundingPath values: it keeps each field in a flat
// array under the path's ID and assembles the value on request.
type BoundingPath struct {
	// ID is the path's dense id within the owning SubgraphIndex: paths are
	// numbered pair by pair in sorted pair order, construction order within
	// a pair.
	ID int
	// Pair is the local boundary pair this path connects.
	Pair PairKey
	// Vertices and Edges are the path in subgraph-local ids, walked out of
	// the EP-Index from Pair.A for each call; they belong to the caller.
	Vertices []graph.VertexID
	Edges    []graph.EdgeID
	// Vfrags is ϕ(P): the total number of virtual fragments, i.e. the sum of
	// initial edge weights along the path.  It never changes.
	Vfrags float64
	// Dist is the current actual distance of the path, maintained
	// incrementally from edge weight deltas.
	Dist float64
	// Bound is the current bound distance BD(P): the sum of the ϕ(P)
	// smallest unit weights in the subgraph.
	Bound float64
}

// SubgraphIndex is the first level of DTLP for a single subgraph: the
// bounding paths for every pair of its boundary vertices, the EP-Index
// mapping local edges to the bounding paths crossing them, and the unit
// weight bookkeeping needed to compute bound distances.
//
// The layout is flat.  Pairs are sorted by key and bounding paths have dense
// ids, so every per-pair and per-path field is a slice indexed by that id.
// The EP-Index is the only (path, edge) table, one array behind int32
// offsets: a path's vertices and edges are walked out of it (walkPath).  The
// structure is fixed once built; maintenance writes dist, lbd and bounds.
type SubgraphIndex struct {
	sub *partition.Subgraph

	// Pair i connects pairKeys[i] (local ids, sorted), owns the paths
	// pairOff[i]..pairOff[i+1]-1 and has lower bound distance lbd[i].
	pairKeys []PairKey
	pairOff  []int32
	lbd      []float64

	// Per path id: the actual distance and the index of the path's vfrag
	// count in vfragVals.  addPath stages the counts in vfrags and the edges
	// in edges[edgeOff[id]:edgeOff[id+1]]; finish turns them into vfragIdx
	// and the EP-Index and drops all three.
	dist     []float64
	vfrags   []float64
	vfragIdx []int32
	edgeOff  []int32
	edges    []graph.EdgeID

	// The EP-Index in compressed sparse row form: the paths crossing local
	// edge e are epPaths[epOff[e]:epOff[e+1]], in increasing id order.
	epOff   []int32
	epPaths []int32

	// vfragVals holds the distinct vfrag counts in ascending order, and
	// bounds[j] the current bound distance of every path with vfrag count
	// vfragVals[j]: paths with equal counts have equal bounds, so a refresh
	// computes one bound per distinct count rather than one per path.
	vfragVals []float64
	bounds    []float64

	// units[e] is local edge e's current unit weight w/w0, and unitOrder the
	// local edges sorted by (unit weight, edge id): a function of the weights
	// alone, which refreshBounds keeps by merging the edges a run moved back
	// in.  From applyWrites to that merge, moved marks those edges, movedIDs
	// lists them, and units holds a moved edge's last written weight instead.
	units     []float64
	unitOrder []int32
	moved     []bool
	movedIDs  []int32
}

// newSubgraphIndex allocates the flat arrays of a subgraph index with exactly
// the capacity its pairs, paths and path edges need, to be filled by
// addPair / addPath and completed by finish.
func newSubgraphIndex(sub *partition.Subgraph, numPairs, numPaths, numEdges int) *SubgraphIndex {
	return &SubgraphIndex{
		sub:      sub,
		pairKeys: make([]PairKey, 0, numPairs),
		pairOff:  make([]int32, 0, numPairs+1),
		dist:     make([]float64, 0, numPaths),
		vfrags:   make([]float64, 0, numPaths),
		edgeOff:  append(make([]int32, 0, numPaths+1), 0),
		edges:    make([]graph.EdgeID, 0, numEdges),
	}
}

// addPair starts the next pair; pairs must arrive in sorted key order.
func (si *SubgraphIndex) addPair(key PairKey) {
	si.pairKeys = append(si.pairKeys, key)
	si.pairOff = append(si.pairOff, int32(len(si.dist)))
}

// addPath appends one bounding path, its edges from A, to the last pair.
func (si *SubgraphIndex) addPath(edges []graph.EdgeID, vfrags, dist float64) {
	si.edges = append(si.edges, edges...)
	si.edgeOff = append(si.edgeOff, int32(len(si.edges)))
	si.vfrags = append(si.vfrags, vfrags)
	si.dist = append(si.dist, dist)
}

// finish derives everything that is a function of the paths: the EP-Index,
// the distinct vfrag table, and the bounds and LBDs.  It drops the staged
// edges and vfrag counts, which walkPath and vfragVals[vfragIdx] now give.
func (si *SubgraphIndex) finish() {
	si.pairOff = append(si.pairOff, int32(len(si.dist)))

	ne := si.sub.Local.NumEdges()
	si.epOff = make([]int32, ne+1)
	for _, e := range si.edges {
		si.epOff[e+1]++
	}
	for e := 0; e < ne; e++ {
		si.epOff[e+1] += si.epOff[e]
	}
	si.epPaths = make([]int32, len(si.edges))
	next := slices.Clone(si.epOff[:ne])
	for id := range si.dist {
		for _, e := range si.edges[si.edgeOff[id]:si.edgeOff[id+1]] {
			si.epPaths[next[e]] = int32(id)
			next[e]++
		}
	}
	si.edgeOff, si.edges = nil, nil

	si.vfragVals = slices.Clone(slices.Compact(slices.Sorted(slices.Values(si.vfrags))))
	si.vfragIdx = make([]int32, len(si.vfrags))
	for id, v := range si.vfrags {
		j, _ := slices.BinarySearch(si.vfragVals, v)
		si.vfragIdx[id] = int32(j)
	}
	si.vfrags = nil
	si.bounds = make([]float64, len(si.vfragVals))

	si.lbd = make([]float64, len(si.pairKeys))
	for i := range si.lbd {
		si.lbd[i] = infValue
	}
	si.refreshBounds()
}

// buildSubgraphIndex indexes a single subgraph: for every pair of its
// boundary vertices it computes up to ξ bounding paths under the vfrag
// metric, registers them in the EP-Index and derives the pair's LBD.
func buildSubgraphIndex(sub *partition.Subgraph, cfg Config) (*SubgraphIndex, error) {
	subgraphBuilds.Add(1)
	local := sub.Local.Snapshot()
	directed := local.Directed()
	// The vfrag metric ranks paths by their initial weights: an edge with
	// initial weight w0 contributes w0 vfrags.
	vfragOpts := &shortest.Options{Weight: local.InitialWeight}

	var keys []PairKey
	addKey := func(a, b graph.VertexID) {
		la, okA := sub.ToLocal(a)
		lb, okB := sub.ToLocal(b)
		if okA && okB {
			keys = append(keys, MakePairKey(la, lb, directed))
		}
	}
	bnd := sub.Boundary
	for i := 0; i < len(bnd); i++ {
		for j := i + 1; j < len(bnd); j++ {
			addKey(bnd[i], bnd[j])
			if directed {
				addKey(bnd[j], bnd[i])
			}
		}
	}
	slices.SortFunc(keys, comparePairKeys)
	keys = slices.Compact(keys)

	// Enumerate every pair's candidates first, so that the flat arrays are
	// allocated once at their final size.
	cands := make([][]graph.Path, len(keys))
	numPairs, numPaths, numEdges := 0, 0, 0
	for i, key := range keys {
		cands[i] = shortest.KShortestDistinctLengths(local, key.A, key.B, cfg.Xi, cfg.MaxEnumerate, vfragOpts)
		if len(cands[i]) > 0 { // else the pair is unreachable inside this subgraph
			numPairs++
		}
		numPaths += len(cands[i])
		for _, p := range cands[i] {
			numEdges += len(p.Vertices) - 1
		}
	}

	si := newSubgraphIndex(sub, numPairs, numPaths, numEdges)
	var pathEdges []graph.EdgeID
	for i, key := range keys {
		if len(cands[i]) == 0 {
			continue
		}
		si.addPair(key)
		for _, p := range cands[i] {
			// Record local edge ids and the current actual distance.
			pathEdges = pathEdges[:0]
			dist := 0.0
			for j := 0; j+1 < len(p.Vertices); j++ {
				e := cheapestArc(local, p.Vertices[j], p.Vertices[j+1])
				if e == graph.NoEdge {
					return nil, fmt.Errorf("dtlp: subgraph %d: bounding path hop %d-%d has no edge", sub.ID, p.Vertices[j], p.Vertices[j+1])
				}
				pathEdges = append(pathEdges, e)
				dist += local.Weight(e)
			}
			si.addPath(pathEdges, p.Dist, dist) // p.Dist is the vfrag count
		}
	}
	si.finish()
	return si, nil
}

// cheapestArc returns the arc the vfrag search takes from u to v: the one with
// the fewest vfrags, the first in adjacency order among equals, or NoEdge.
func cheapestArc(local *graph.Snapshot, u, v graph.VertexID) graph.EdgeID {
	best, w0 := graph.NoEdge, infValue
	for _, a := range local.Neighbors(u) {
		if a.To == v && local.InitialWeight(a.Edge) < w0 {
			best, w0 = a.Edge, local.InitialWeight(a.Edge)
		}
	}
	return best
}

// Subgraph returns the indexed subgraph.
func (si *SubgraphIndex) Subgraph() *partition.Subgraph { return si.sub }

// NumPairs returns the number of indexed boundary pairs.
func (si *SubgraphIndex) NumPairs() int { return len(si.pairKeys) }

// NumBoundingPaths returns the total number of bounding paths indexed.
func (si *SubgraphIndex) NumBoundingPaths() int { return len(si.dist) }

// EPIndexEntries returns the number of (edge -> path) entries in the
// EP-Index of this subgraph.
func (si *SubgraphIndex) EPIndexEntries() int { return len(si.epPaths) }

// walkPath appends to verts and edges path id's vertices and edges, from
// key.A to key.B.  The path is simple, so at each vertex one arc not back to
// the previous vertex carries it: the arc whose EP-Index list holds id.
// pos[e], a copy of epOff[e] to start, is a cursor into e's list (increasing
// ids) that the walk moves up to id, so walks sharing pos go in id order.
func (si *SubgraphIndex) walkPath(verts []graph.VertexID, edges []graph.EdgeID, id int32, key PairKey, pos []int32) ([]graph.VertexID, []graph.EdgeID) {
	verts = append(verts, key.A)
	for prev, v := graph.NoVertex, key.A; v != key.B; {
		next, out := graph.NoVertex, graph.NoEdge // Neighbors panics on NoVertex
		for _, a := range si.sub.Local.Neighbors(v) {
			p, end := pos[a.Edge], si.epOff[a.Edge+1]
			for p < end && si.epPaths[p] < id {
				p++
			}
			if pos[a.Edge] = p; a.To != prev && p < end && si.epPaths[p] == id {
				next, out = a.To, a.Edge
				break
			}
		}
		prev, v = v, next
		verts, edges = append(verts, v), append(edges, out)
	}
	return verts, edges
}

// pairIndex returns the index of the local pair (la, lb), if it is indexed.
func (si *SubgraphIndex) pairIndex(la, lb graph.VertexID) (int, bool) {
	return slices.BinarySearchFunc(si.pairKeys, MakePairKey(la, lb, si.sub.Local.Directed()), comparePairKeys)
}

// boundingPath assembles the read-accessor value of path id (pos: walkPath).
func (si *SubgraphIndex) boundingPath(id int32, pos []int32) BoundingPath {
	pair := si.pairKeys[sort.Search(len(si.pairKeys), func(i int) bool { return si.pairOff[i+1] > id })]
	verts, edges := si.walkPath(nil, nil, id, pair, pos)
	return BoundingPath{
		ID:       int(id),
		Pair:     pair,
		Vertices: verts,
		Edges:    edges,
		Vfrags:   si.vfragVals[si.vfragIdx[id]],
		Dist:     si.dist[id],
		Bound:    si.bounds[si.vfragIdx[id]],
	}
}

// BoundingPaths returns the bounding paths of the local pair (la, lb) in
// construction order, or nil if the pair is not indexed.
func (si *SubgraphIndex) BoundingPaths(la, lb graph.VertexID) []BoundingPath {
	i, ok := si.pairIndex(la, lb)
	if !ok {
		return nil
	}
	var out []BoundingPath
	pos := slices.Clone(si.epOff[:len(si.epOff)-1])
	for id := si.pairOff[i]; id < si.pairOff[i+1]; id++ {
		out = append(out, si.boundingPath(id, pos))
	}
	return out
}

// PathsThroughEdge returns the bounding paths crossing the local edge e (the
// EP-Index lookup of Algorithm 2), in id order.
func (si *SubgraphIndex) PathsThroughEdge(e graph.EdgeID) []BoundingPath {
	if e < 0 || int(e) >= len(si.epOff)-1 {
		return nil
	}
	var out []BoundingPath
	pos := slices.Clone(si.epOff[:len(si.epOff)-1])
	for _, id := range si.epPaths[si.epOff[e]:si.epOff[e+1]] {
		out = append(out, si.boundingPath(id, pos))
	}
	return out
}

// PathSets returns, per local edge crossed by some bounding path, the ids of
// the bounding paths crossing it.  This is the raw EP-Index content consumed
// by the MFP-tree compressor.
func (si *SubgraphIndex) PathSets() map[graph.EdgeID][]int {
	out := make(map[graph.EdgeID][]int)
	for e := 0; e+1 < len(si.epOff); e++ {
		ids := si.epPaths[si.epOff[e]:si.epOff[e+1]]
		if len(ids) == 0 {
			continue
		}
		set := make([]int, len(ids))
		for i, id := range ids {
			set[i] = int(id)
		}
		out[graph.EdgeID(e)] = set
	}
	return out
}

// LBDLocal returns the lower bound distance of the local pair (la, lb), or
// +Inf if the pair is not indexed (e.g. unreachable within the subgraph).
func (si *SubgraphIndex) LBDLocal(la, lb graph.VertexID) float64 {
	if i, ok := si.pairIndex(la, lb); ok {
		return si.lbd[i]
	}
	return infValue
}

// applyWrites is one subgraph's share of applyRun: ws are the run's writes
// to its edges, in run order and local edge ids.  A write's delta is taken
// from the edge's weight before the run or its previous write in ws.  It
// returns the distance adjustments made, the pairs whose LBD changed, and
// whether any weight changed at all.
func (si *SubgraphIndex) applyWrites(ws []graph.WeightUpdate) (touched int, changed []int32, affected bool, err error) {
	snap := si.sub.Local.Snapshot()
	si.movedIDs = si.movedIDs[:0]
	for _, w := range ws {
		e := w.Edge
		prev := snap.Weight(e)
		if si.moved[e] {
			prev = si.units[e] // its previous write, until mergeUnits
		}
		delta := w.NewWeight - prev
		if delta == 0 {
			continue
		}
		if !si.moved[e] {
			si.moved[e] = true
			si.movedIDs = append(si.movedIDs, int32(e))
		}
		si.units[e] = w.NewWeight
		for _, id := range si.epPaths[si.epOff[e]:si.epOff[e+1]] {
			si.dist[id] += delta
			touched++
		}
	}
	if len(si.movedIDs) == 0 {
		return 0, nil, false, nil
	}
	if err := si.sub.Local.ApplyUpdates(ws); err != nil {
		return 0, nil, false, err
	}
	return touched, si.refreshBounds(), true, nil
}

// refreshBounds recomputes the bound distance of every distinct vfrag count
// and the LBD of every pair from the current weights, returning the indexes
// of the pairs whose LBD changed.  The first refresh sorts the unit order;
// every later one merges back the edges applyWrites marked moved.
func (si *SubgraphIndex) refreshBounds() []int32 {
	if si.units == nil {
		si.sortUnits()
	} else {
		si.mergeUnits()
	}
	si.sweepBounds()
	var changed []int32
	for i := range si.pairKeys {
		minDist := infValue
		maxBound := 0.0
		for id := si.pairOff[i]; id < si.pairOff[i+1]; id++ {
			if d := si.dist[id]; d < minDist {
				minDist = d
			}
			if b := si.bounds[si.vfragIdx[id]]; b > maxBound {
				maxBound = b
			}
		}
		// Theorem 1: if the largest bound distance reaches the smallest
		// actual distance among the bounding paths, that actual distance is
		// the exact shortest distance; otherwise the largest bound distance
		// is a valid lower bound.
		lbd := maxBound
		if maxBound >= minDist {
			lbd = minDist
		}
		if lbd != si.lbd[i] {
			si.lbd[i] = lbd
			changed = append(changed, int32(i))
		}
	}
	return changed
}

// unitOf is local edge e's unit weight w/w0 under snap, 0 for an edge with
// no fragments.
func unitOf(snap *graph.Snapshot, e graph.EdgeID) float64 {
	if w0 := snap.InitialWeight(e); w0 > 0 {
		return snap.Weight(e) / w0
	}
	return 0
}

// unitCompare orders local edges by (unit weight, edge id).
func (si *SubgraphIndex) unitCompare(a, b int32) int {
	if c := cmp.Compare(si.units[a], si.units[b]); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// sortUnits rebuilds units and unitOrder from the subgraph's current
// weights.
func (si *SubgraphIndex) sortUnits() {
	snap := si.sub.Local.Snapshot()
	n := snap.NumEdges()
	si.units = make([]float64, n)
	si.unitOrder = make([]int32, n)
	si.moved = make([]bool, n)
	for e := range graph.EdgeID(n) {
		si.units[e] = unitOf(snap, e)
		si.unitOrder[e] = int32(e)
	}
	slices.SortFunc(si.unitOrder, si.unitCompare)
}

// mergeUnits re-keys the moved edges and merges them back into unitOrder:
// the rest of the order is still sorted, so taking the moved edges out,
// sorting them and merging the two runs from the back costs O(n + m log m)
// for m moved edges out of n.
func (si *SubgraphIndex) mergeUnits() {
	snap := si.sub.Local.Snapshot()
	ms := si.movedIDs
	for _, e := range ms {
		si.units[e] = unitOf(snap, graph.EdgeID(e))
	}
	slices.SortFunc(ms, si.unitCompare)
	kept := 0
	for _, e := range si.unitOrder {
		if !si.moved[e] {
			si.unitOrder[kept] = e
			kept++
		}
	}
	for i, j, k := kept-1, len(ms)-1, len(si.unitOrder)-1; j >= 0; k-- {
		if i >= 0 && si.unitCompare(ms[j], si.unitOrder[i]) < 0 {
			si.unitOrder[k] = si.unitOrder[i]
			i--
		} else {
			si.unitOrder[k] = ms[j]
			si.moved[ms[j]] = false
			j--
		}
	}
}

// sweepBounds fills bounds in one pass over the edges in unit order: the
// bound of ϕ vfrags is the total weight of the ϕ smallest virtual fragments
// (taken greedily from the edges with the smallest unit weights), or of all
// of them if the subgraph holds fewer.
func (si *SubgraphIndex) sweepBounds() {
	snap := si.sub.Local.Snapshot()
	i, n := 0, len(si.unitOrder)
	frags, cost := 0.0, 0.0 // of the first i edges in unit order
	for j, phi := range si.vfragVals {
		b := 0.0
		if phi > 0 {
			for i < n {
				e := graph.EdgeID(si.unitOrder[i])
				w0 := snap.InitialWeight(e)
				if frags+w0 >= phi {
					break
				}
				frags += w0
				cost += w0 * si.units[e]
				i++
			}
			b = cost
			if i < n {
				b = cost + (phi-frags)*si.units[si.unitOrder[i]]
			}
		}
		si.bounds[j] = b
	}
}

// boundaryDistances returns the shortest distance within this subgraph,
// under the given weights (an epoch snapshot of the local graph), from global
// vertex v to every boundary vertex it reaches, or with to set from every
// boundary vertex that reaches v to v.  Used when attaching non-boundary query
// endpoints to the skeleton graph.
func (si *SubgraphIndex) boundaryDistances(v graph.VertexID, weights graph.WeightedView, to bool) map[graph.VertexID]float64 {
	lv, ok := si.sub.ToLocal(v)
	if !ok {
		return nil
	}
	var tree *shortest.Tree
	if !to {
		tree = shortest.Dijkstra(weights, lv, nil)
	}
	out := make(map[graph.VertexID]float64, len(si.sub.Boundary))
	for _, bv := range si.sub.Boundary {
		lb, ok := si.sub.ToLocal(bv)
		if !ok {
			continue
		}
		if to {
			if d := shortest.ShortestDistance(weights, lb, lv, nil); !math.IsInf(d, 1) {
				out[bv] = d
			}
		} else if tree.Reachable(lb) {
			out[bv] = tree.Dist[lb]
		}
	}
	return out
}

// approxBytes is the memory this subgraph's index holds in its arrays, for
// the construction-cost experiments.
func (si *SubgraphIndex) approxBytes() int64 {
	f64 := len(si.lbd) + len(si.dist) + len(si.vfragVals) + len(si.bounds) + len(si.units)
	i32 := len(si.pairOff) + len(si.vfragIdx) + len(si.epOff) + len(si.epPaths) + len(si.unitOrder)
	return int64(f64)*8 + int64(i32)*4 + int64(len(si.pairKeys))*8 + int64(len(si.moved)) + int64(cap(si.movedIDs))*4
}
