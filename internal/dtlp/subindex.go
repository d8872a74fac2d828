package dtlp

import (
	"cmp"
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
	// Vertices is the path in subgraph-local vertex ids.  It aliases the
	// index's storage and must not be modified.
	Vertices []graph.VertexID
	// Edges is the path in subgraph-local edge ids.  It aliases the index's
	// storage and must not be modified.
	Edges []graph.EdgeID
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
// ids, so every per-pair and per-path field is a slice indexed by that id,
// and variable-length data (a path's vertices and edges, an edge's paths)
// sits in one array per kind behind int32 offsets.  The structure is fixed
// once built; maintenance writes dist, lbd and bounds in place.
type SubgraphIndex struct {
	sub *partition.Subgraph

	// Pair i connects pairKeys[i] (local ids, sorted), owns the paths
	// pairOff[i]..pairOff[i+1]-1 and has lower bound distance lbd[i].
	pairKeys []PairKey
	pairOff  []int32
	lbd      []float64

	// Per path id: the actual distance, the vfrag count and the index of
	// that count in vfragVals; the path's vertices are
	// verts[vertOff[id]:vertOff[id+1]] and its edges
	// edges[edgeOff[id]:edgeOff[id+1]].
	dist     []float64
	vfrags   []float64
	vfragIdx []int32
	vertOff  []int32
	verts    []graph.VertexID
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
	// in.  While it does, moved marks those edges and movedIDs lists them.
	units     []float64
	unitOrder []int32
	moved     []bool
	movedIDs  []int32
}

// newSubgraphIndex allocates the flat arrays of a subgraph index with exactly
// the capacity its pairs, paths and path vertices need, to be filled by
// addPair / addPath and completed by finish.
func newSubgraphIndex(sub *partition.Subgraph, numPairs, numPaths, numVerts int) *SubgraphIndex {
	return &SubgraphIndex{
		sub:      sub,
		pairKeys: make([]PairKey, 0, numPairs),
		pairOff:  make([]int32, 0, numPairs+1),
		dist:     make([]float64, 0, numPaths),
		vfrags:   make([]float64, 0, numPaths),
		vertOff:  append(make([]int32, 0, numPaths+1), 0),
		verts:    make([]graph.VertexID, 0, numVerts),
		edgeOff:  append(make([]int32, 0, numPaths+1), 0),
		edges:    make([]graph.EdgeID, 0, numVerts-numPaths),
	}
}

// addPair starts the next pair; pairs must arrive in sorted key order.
func (si *SubgraphIndex) addPair(key PairKey) {
	si.pairKeys = append(si.pairKeys, key)
	si.pairOff = append(si.pairOff, int32(len(si.dist)))
}

// addPath appends one bounding path to the pair added last.
func (si *SubgraphIndex) addPath(verts []graph.VertexID, edges []graph.EdgeID, vfrags, dist float64) {
	si.verts = append(si.verts, verts...)
	si.edges = append(si.edges, edges...)
	si.vertOff = append(si.vertOff, int32(len(si.verts)))
	si.edgeOff = append(si.edgeOff, int32(len(si.edges)))
	si.vfrags = append(si.vfrags, vfrags)
	si.dist = append(si.dist, dist)
}

// finish derives everything that is a function of the paths: the EP-Index,
// the distinct vfrag table, and the bounds and LBDs.
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
		for _, e := range si.pathEdges(int32(id)) {
			si.epPaths[next[e]] = int32(id)
			next[e]++
		}
	}

	si.vfragVals = slices.Clone(slices.Compact(slices.Sorted(slices.Values(si.vfrags))))
	si.vfragIdx = make([]int32, len(si.vfrags))
	for id, v := range si.vfrags {
		j, _ := slices.BinarySearch(si.vfragVals, v)
		si.vfragIdx[id] = int32(j)
	}
	si.bounds = make([]float64, len(si.vfragVals))

	si.lbd = make([]float64, len(si.pairKeys))
	for i := range si.lbd {
		si.lbd[i] = infValue
	}
	si.refreshBounds(nil)
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
	numPairs, numPaths, numVerts := 0, 0, 0
	for i, key := range keys {
		cands[i] = shortest.KShortestDistinctLengths(local, key.A, key.B, cfg.Xi, cfg.MaxEnumerate, vfragOpts)
		if len(cands[i]) > 0 { // else the pair is unreachable inside this subgraph
			numPairs++
		}
		numPaths += len(cands[i])
		for _, p := range cands[i] {
			numVerts += len(p.Vertices)
		}
	}

	si := newSubgraphIndex(sub, numPairs, numPaths, numVerts)
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
				e, ok := local.EdgeBetween(p.Vertices[j], p.Vertices[j+1])
				if !ok {
					continue
				}
				pathEdges = append(pathEdges, e)
				dist += local.Weight(e)
			}
			si.addPath(p.Vertices, pathEdges, p.Dist, dist) // p.Dist is the vfrag count
		}
	}
	si.finish()
	return si, nil
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

// pathVerts and pathEdges return the vertices and edges of path id, capped so
// that an append by a caller cannot overwrite the next path.
func (si *SubgraphIndex) pathVerts(id int32) []graph.VertexID {
	lo, hi := si.vertOff[id], si.vertOff[id+1]
	return si.verts[lo:hi:hi]
}

func (si *SubgraphIndex) pathEdges(id int32) []graph.EdgeID {
	lo, hi := si.edgeOff[id], si.edgeOff[id+1]
	return si.edges[lo:hi:hi]
}

// pairIndex returns the index of the local pair (la, lb), if it is indexed.
func (si *SubgraphIndex) pairIndex(la, lb graph.VertexID) (int, bool) {
	return slices.BinarySearchFunc(si.pairKeys, MakePairKey(la, lb, si.sub.Local.Directed()), comparePairKeys)
}

// boundingPath assembles the read-accessor value of path id.
func (si *SubgraphIndex) boundingPath(id int32) BoundingPath {
	pair := sort.Search(len(si.pairKeys), func(i int) bool { return si.pairOff[i+1] > id })
	return BoundingPath{
		ID:       int(id),
		Pair:     si.pairKeys[pair],
		Vertices: si.pathVerts(id),
		Edges:    si.pathEdges(id),
		Vfrags:   si.vfrags[id],
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
	for id := si.pairOff[i]; id < si.pairOff[i+1]; id++ {
		out = append(out, si.boundingPath(id))
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
	for _, id := range si.epPaths[si.epOff[e]:si.epOff[e+1]] {
		out = append(out, si.boundingPath(id))
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

// LBDGlobal is LBDLocal with global vertex ids.
func (si *SubgraphIndex) LBDGlobal(a, b graph.VertexID) float64 {
	la, okA := si.sub.ToLocal(a)
	lb, okB := si.sub.ToLocal(b)
	if !okA || !okB {
		return infValue
	}
	return si.LBDLocal(la, lb)
}

// globalPairKey translates a local pair key into global vertex ids.
func (si *SubgraphIndex) globalPairKey(local PairKey, directed bool) PairKey {
	return MakePairKey(si.sub.ToGlobal(local.A), si.sub.ToGlobal(local.B), directed)
}

// applyEdgeDelta adjusts the actual distance of every bounding path crossing
// the local edge e by delta, returning the number of paths touched.  Called
// by Index.ApplyUpdates after the subgraph's local weight has been updated.
func (si *SubgraphIndex) applyEdgeDelta(e graph.EdgeID, delta float64) int {
	ids := si.epPaths[si.epOff[e]:si.epOff[e+1]]
	for _, id := range ids {
		si.dist[id] += delta
	}
	return len(ids)
}

// refreshBounds recomputes the bound distance of every distinct vfrag count
// and the LBD of every pair from the current weights, returning the indexes
// of the pairs whose LBD changed.  moved lists the local edges whose weight
// changed since the last refresh (repeats allowed); nil means any may have,
// and sorts the unit order afresh.
func (si *SubgraphIndex) refreshBounds(moved []graph.WeightUpdate) []int32 {
	if moved == nil {
		si.sortUnits()
	} else {
		si.mergeUnits(moved)
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
func (si *SubgraphIndex) mergeUnits(moved []graph.WeightUpdate) {
	snap := si.sub.Local.Snapshot()
	ms := si.movedIDs[:0]
	for _, w := range moved {
		if e := w.Edge; !si.moved[e] {
			si.moved[e] = true
			si.units[e] = unitOf(snap, e)
			ms = append(ms, int32(e))
		}
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
	si.movedIDs = ms
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

// boundaryDistancesFrom returns the shortest distance within this subgraph
// from global vertex v to every boundary vertex of the subgraph, under the
// given weights (an epoch snapshot of the local graph).  Used
// when attaching non-boundary query endpoints to the skeleton graph.
func (si *SubgraphIndex) boundaryDistancesFrom(v graph.VertexID, weights graph.WeightedView) map[graph.VertexID]float64 {
	lv, ok := si.sub.ToLocal(v)
	if !ok {
		return nil
	}
	tree := shortest.Dijkstra(weights, lv, nil)
	out := make(map[graph.VertexID]float64, len(si.sub.Boundary))
	for _, bv := range si.sub.Boundary {
		lb, ok := si.sub.ToLocal(bv)
		if !ok {
			continue
		}
		if tree.Reachable(lb) {
			out[bv] = tree.Dist[lb]
		}
	}
	return out
}

// boundaryDistancesTo returns the shortest distance within this subgraph
// from every boundary vertex of the subgraph to global vertex v, under the
// given weights.  Used for directed graphs when attaching a non-boundary
// destination vertex to the skeleton graph.
func (si *SubgraphIndex) boundaryDistancesTo(v graph.VertexID, weights graph.WeightedView) map[graph.VertexID]float64 {
	lv, ok := si.sub.ToLocal(v)
	if !ok {
		return nil
	}
	out := make(map[graph.VertexID]float64, len(si.sub.Boundary))
	for _, bv := range si.sub.Boundary {
		lb, ok := si.sub.ToLocal(bv)
		if !ok {
			continue
		}
		if d := shortest.ShortestDistance(weights, lb, lv, nil); !math.IsInf(d, 1) {
			out[bv] = d
		}
	}
	return out
}

// approxBytes is the memory this subgraph's index holds in its arrays, for
// the construction-cost experiments.
func (si *SubgraphIndex) approxBytes() int64 {
	f64 := len(si.lbd) + len(si.dist) + len(si.vfrags) + len(si.vfragVals) + len(si.bounds) + len(si.units)
	i32 := len(si.pairOff) + len(si.vfragIdx) + len(si.vertOff) + len(si.verts) + len(si.edgeOff) +
		len(si.edges) + len(si.epOff) + len(si.epPaths) + len(si.unitOrder)
	return int64(f64)*8 + int64(i32)*4 + int64(len(si.pairKeys))*8 + int64(len(si.moved)) + int64(cap(si.movedIDs))*4
}
