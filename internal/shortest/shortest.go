// Package shortest implements single-source shortest path search (Dijkstra,
// and A* where a distance-to-target heuristic is at hand) and Yen's algorithm
// for k shortest loopless paths.  These are the sequential building blocks
// that both the DTLP index construction and the KSP-DG refine step (partial k
// shortest paths within a subgraph) rely on, as well as the centralized
// baselines evaluated in the paper.
//
// All algorithms operate on a graph.WeightedView, so they work on live
// graphs, snapshots, and partitioned subgraphs alike.  An Options value can
// substitute a different weight function (used by the DTLP index, which
// searches under initial-weight/vfrag metrics) and can forbid vertices or
// edges (used by Yen's deviation step).
package shortest

import (
	"math"
	"slices"
	"sync"

	"kspdg/internal/graph"
)

// WeightFunc maps an edge to the weight used during search.  It allows
// searching under a metric other than the view's current weights (for
// example, the initial weights that define virtual fragments in DTLP).
type WeightFunc func(graph.EdgeID) float64

// Options configures a shortest path search.  The zero value (or nil pointer)
// searches under the view's current weights with nothing forbidden.
type Options struct {
	// Weight substitutes the edge weight function.  Nil means the view's
	// current weights.
	Weight WeightFunc
	// ForbiddenVertices are excluded from the search (they can be neither
	// visited nor relaxed).  The source is never excluded.
	ForbiddenVertices map[graph.VertexID]bool
	// ForbiddenEdges are excluded from the search.
	ForbiddenEdges map[graph.EdgeID]bool
}

func (o *Options) weightFn(v graph.WeightedView) WeightFunc {
	if o != nil && o.Weight != nil {
		return o.Weight
	}
	return v.Weight
}

// searchWeight returns the metric a search relaxes arcs with: weightFn with
// the caller's forbidden edges priced at +Inf.  An arc of infinite weight can
// never lower a distance, so it is excluded exactly as if it had been skipped,
// and searches without forbidden edges pay nothing for the feature.
func (o *Options) searchWeight(v graph.WeightedView) WeightFunc {
	weight := o.weightFn(v)
	if o == nil || len(o.ForbiddenEdges) == 0 {
		return weight
	}
	forbidden := o.ForbiddenEdges
	return func(e graph.EdgeID) float64 {
		if forbidden[e] {
			return math.Inf(1)
		}
		return weight(e)
	}
}

// Tree is a shortest path tree rooted at Source, as produced by Dijkstra.
// Dist[v] is +Inf for unreachable vertices.
type Tree struct {
	Source     graph.VertexID
	Dist       []float64
	Parent     []graph.VertexID
	ParentEdge []graph.EdgeID
}

// Reachable reports whether t contains a path from the source to v.
func (t *Tree) Reachable(v graph.VertexID) bool {
	return !math.IsInf(t.Dist[v], 1)
}

// PathTo reconstructs the shortest path from the tree's source to v.
// The second return value is false if v is unreachable.
func (t *Tree) PathTo(v graph.VertexID) (graph.Path, bool) {
	if !t.Reachable(v) {
		return graph.Path{}, false
	}
	var rev []graph.VertexID
	for u := v; u != graph.NoVertex; u = t.Parent[u] {
		rev = append(rev, u)
		if u == t.Source {
			break
		}
	}
	verts := make([]graph.VertexID, len(rev))
	for i, u := range rev {
		verts[len(rev)-1-i] = u
	}
	return graph.Path{Vertices: verts, Dist: t.Dist[v]}, true
}

// Dijkstra computes the full shortest path tree from source s under opts.
func Dijkstra(v graph.WeightedView, s graph.VertexID, opts *Options) *Tree {
	n := v.NumVertices()
	sc := search(v, s, graph.NoVertex, opts)
	t := &Tree{
		Source:     s,
		Dist:       make([]float64, n),
		Parent:     make([]graph.VertexID, n),
		ParentEdge: make([]graph.EdgeID, n),
	}
	for u := range t.Dist {
		t.Dist[u], t.Parent[u], t.ParentEdge[u] = math.Inf(1), graph.NoVertex, graph.NoEdge
		if st := &sc.v[u]; st.reached == sc.search {
			t.Dist[u], t.Parent[u], t.ParentEdge[u] = st.dist, st.parent, st.parentEdge
		}
	}
	putScratch(sc)
	return t
}

// ShortestPath computes one shortest path from s to t under opts.  The search
// stops as soon as t is settled.  The second return value is false if t is
// unreachable.  The search runs on pooled scratch state, so only the
// returned path itself allocates.
func ShortestPath(v graph.WeightedView, s, t graph.VertexID, opts *Options) (graph.Path, bool) {
	if s == t {
		return graph.Path{Vertices: []graph.VertexID{s}}, true
	}
	sc := search(v, s, t, opts)
	verts, ok := sc.appendPath(nil, s, t)
	d := sc.distTo(t)
	putScratch(sc)
	if !ok {
		return graph.Path{}, false
	}
	return graph.Path{Vertices: verts, Dist: d}, true
}

// ShortestDistance returns only the shortest distance from s to t, or +Inf if
// t is unreachable.  Like ShortestPath it runs on pooled scratch state; it
// never allocates.
func ShortestDistance(v graph.WeightedView, s, t graph.VertexID, opts *Options) float64 {
	if s == t {
		return 0
	}
	sc := search(v, s, t, opts)
	d := sc.distTo(t)
	putScratch(sc)
	return d
}

// search runs one search from s under opts alone on pooled scratch state,
// which the caller reads the outcome from and hands back with putScratch.
func search(v graph.WeightedView, s, target graph.VertexID, opts *Options) *searchScratch {
	sc := getScratch(v.NumVertices(), 2) // one ban set, one search
	sc.banCaller(opts)
	sc.run(v, s, target, opts.searchWeight(v), nil, nil)
	return sc
}

// vertexState is everything a search knows about one vertex.  The three
// stamps make the state self-invalidating: a field group is live only while
// its stamp equals the scratch's current generation, so starting a search or
// a ban set costs one counter increment instead of a refill of n entries, and
// one relaxation touches one cache line.
type vertexState struct {
	dist       float64
	parent     graph.VertexID
	parentEdge graph.EdgeID
	reached    uint32 // search that last wrote dist/parent/parentEdge
	settled    uint32 // search that settled the vertex
	banned     uint32 // ban set that excludes the vertex
}

// searchScratch is the reusable working state of Dijkstra searches.  Yen's
// algorithm runs one search per spur vertex and the engine's refine step runs
// Yen per subgraph per pair, so this state is pooled and — because it is
// generation-stamped — never cleared between searches.  A ban set (the
// caller's forbidden vertices plus, inside Yen, the root path) outlives the
// searches run under it: newBans starts one, ban adds to it.
type searchScratch struct {
	v      []vertexState
	gen    uint32 // last generation handed out; stamps are never 0
	search uint32 // generation of the latest run
	bans   uint32 // generation of the current ban set
	heap   vertexHeap
}

var scratchPool = sync.Pool{New: func() interface{} { return new(searchScratch) }}

// getScratch returns scratch state for a graph of n vertices on which gens
// generations (searches plus ban sets) can be started before the counter
// wraps.  Stamps left behind by earlier users are all below the counter and
// therefore dead, whatever graph they were written for.
func getScratch(n, gens int) *searchScratch {
	sc := scratchPool.Get().(*searchScratch)
	sc.reserve(n, gens)
	return sc
}

func (sc *searchScratch) reserve(n, gens int) {
	if len(sc.v) < n {
		sc.v = make([]vertexState, n)
	}
	if uint64(sc.gen)+uint64(gens) > math.MaxUint32 {
		clear(sc.v)
		sc.gen = 0
	}
}

func putScratch(sc *searchScratch) { scratchPool.Put(sc) }

// newBans starts an empty ban set; earlier bans stop applying.
func (sc *searchScratch) newBans() {
	sc.gen++
	sc.bans = sc.gen
}

// ban excludes u from searches until the next newBans: it can be neither
// visited nor relaxed.  A search's own source is never excluded.
func (sc *searchScratch) ban(u graph.VertexID) { sc.v[u].banned = sc.bans }

// banCaller starts a ban set holding the caller's forbidden vertices.
func (sc *searchScratch) banCaller(opts *Options) {
	sc.newBans()
	if opts == nil {
		return
	}
	for u, forbidden := range opts.ForbiddenVertices {
		if forbidden && uint(u) < uint(len(sc.v)) {
			sc.ban(u)
		}
	}
}

// run executes one best-first search from s under the current ban set.  With
// h nil it is Dijkstra's algorithm.  Otherwise it is A*: a vertex is keyed by
// its distance plus h, a consistent lower bound on its distance to target, so
// target settles sooner and — in exact arithmetic — every vertex still
// settles with its exact distance.  In floating point the keys of two routes
// to a vertex a few ulps apart can round equal, and the worse may settle it:
// A*'s distances then match Dijkstra's up to rounding, not always bit for
// bit.  If target is a valid vertex the search stops once target is settled
// (distances of unsettled vertices are then upper bounds).  nextBans
// lists vertices that may not be entered from s: Yen's deviation hops all
// leave the spur vertex, so they are consulted only while s — the first
// vertex settled — is expanded, not on every relaxed arc.
func (sc *searchScratch) run(v graph.WeightedView, s, target graph.VertexID, weight WeightFunc, h []float64, nextBans []graph.VertexID) {
	sc.spur(v, s, target, weight, h, nextBans, nil, math.Inf(1))
}

// spur is run with two early stops for Yen's spur searches.  tree, when not
// nil, is the reverse shortest path tree towards target that h was taken
// from, and the search stops on a settled vertex whose tree path is usable
// (see shortcut).  And it gives up, without reaching target, once the
// smallest key exceeds bound: with h a lower bound, every path it could
// still find is longer.  It returns the number of vertices it settled.
func (sc *searchScratch) spur(v graph.WeightedView, s, target graph.VertexID, weight WeightFunc, h []float64, nextBans []graph.VertexID, tree *revTree, bound float64) int {
	sc.gen++
	gen, bans := sc.gen, sc.bans
	sc.search = gen
	if tree != nil {
		tree.begin()
	}
	inf := math.Inf(1)
	st := sc.v
	st[s].dist, st[s].parent, st[s].parentEdge, st[s].reached = 0, graph.NoVertex, graph.NoEdge, gen
	pq := &sc.heap
	pq.reset()
	pq.push(s, 0)
	settled := 0
	for pq.len() > 0 {
		u, key := pq.pop()
		if key > bound {
			break
		}
		su := &st[u]
		if su.settled == gen {
			continue
		}
		su.settled = gen
		settled++
		if u == target {
			break
		}
		if tree != nil && (pq.len() == 0 || key < pq.ps[0]) && sc.shortcut(tree, u, s, weight, nextBans) {
			break
		}
		du := su.dist
		for _, a := range v.Neighbors(u) {
			to := &st[a.To]
			if to.settled == gen || to.banned == bans {
				continue
			}
			if len(nextBans) != 0 && slices.Contains(nextBans, a.To) {
				continue
			}
			nd := du + weight(a.Edge)
			cur := inf
			if to.reached == gen {
				cur = to.dist
			}
			if nd < cur {
				to.dist, to.parent, to.parentEdge, to.reached = nd, u, a.Edge, gen
				if h == nil {
					pq.push(a.To, nd)
				} else {
					pq.push(a.To, nd+h[a.To])
				}
			}
		}
		nextBans = nil
	}
	return settled
}

// revTree is the reverse shortest path tree towards t that a Generator's
// first search leaves behind (see Generator.first).  hops[u].next is u's
// next vertex towards t and hops[u].edge the arc to it, for every vertex
// that search settled — the vertices whose heuristic is exact — and NoVertex
// elsewhere.  hops[u].memo caches, per spur search, whether u's tree path is
// clean: it holds the search's stamp shifted left once, the verdict in the
// low bit.
type revTree struct {
	hops  []treeHop
	t     graph.VertexID
	stamp uint32
}

type treeHop struct {
	next graph.VertexID
	edge graph.EdgeID
	memo uint32
}

// begin starts a spur search's memo: earlier verdicts stop applying.
func (tr *revTree) begin() {
	tr.stamp++
	if tr.stamp == 1<<31 {
		for i := range tr.hops {
			tr.hops[i].memo = 0
		}
		tr.stamp = 1
	}
}

// shortcut ends a goal-directed spur search from s at the settled vertex u
// when u's tree path to t is a shortest completion, and reports whether it
// did.  u settled with key dist(u) + h(u); where h(u) is exact and the tree
// path runs through no banned vertex and not through s (nor, for u = s, over
// a banned hop), that path is open to the search, so the key is the distance
// to t and root + chain to u + tree path is a shortest spur.  The caller
// takes it only when u's key is strictly below every other key in the heap:
// on a tie the plain search might settle t over another, equally long path,
// and the kernel would then produce a different path from textbook Yen.
// The path is laid into the search state — parents and distances summed
// forwards from u, as the plain search sums them — so appendPath and distTo
// read it as if the search had run to t.  A tree path through a vertex this
// search has settled is not taken: with zero-weight arcs it could loop back
// into the chain from s to u.
func (sc *searchScratch) shortcut(tree *revTree, u, s graph.VertexID, weight WeightFunc, nextBans []graph.VertexID) bool {
	hops, t := tree.hops, tree.t
	first := hops[u].next
	if first == graph.NoVertex {
		return false // h(u) is only a lower bound
	}
	from := u
	if u == s {
		if slices.Contains(nextBans, first) {
			return false
		}
		from = first
	}
	if !sc.treeClean(tree, from, s) {
		return false
	}
	st, gen := sc.v, sc.search
	for w := first; w != t; w = hops[w].next {
		if st[w].settled == gen {
			return false
		}
	}
	for w := u; w != t; w = hops[w].next {
		hw := hops[w]
		x := &st[hw.next]
		x.dist, x.parent, x.parentEdge, x.reached = st[w].dist+weight(hw.edge), w, hw.edge, gen
	}
	return true
}

// treeClean reports whether the tree path from u, a tree vertex, to t runs
// through neither a banned vertex nor s, memoising the verdict for every
// vertex it walks.
func (sc *searchScratch) treeClean(tree *revTree, u, s graph.VertexID) bool {
	hops, t, stamp := tree.hops, tree.t, tree.stamp<<1
	w, ok := u, true
	for w != t {
		if m := hops[w].memo; m&^1 == stamp {
			ok = m&1 == 1
			break
		}
		if w == s || sc.v[w].banned == sc.bans {
			ok = false
			break
		}
		w = hops[w].next
	}
	verdict := stamp
	if ok {
		verdict |= 1
	}
	for x := u; x != w; x = hops[x].next {
		hops[x].memo = verdict
	}
	return ok
}

// distTo returns the latest run's distance to t, +Inf if it never reached t.
func (sc *searchScratch) distTo(t graph.VertexID) float64 {
	if st := &sc.v[t]; st.reached == sc.search {
		return st.dist
	}
	return math.Inf(1)
}

// appendPath appends the latest run's shortest path from s to t to buf,
// growing buf at most once.  It reports false if the run never reached t.
func (sc *searchScratch) appendPath(buf []graph.VertexID, s, t graph.VertexID) ([]graph.VertexID, bool) {
	if sc.v[t].reached != sc.search {
		return buf, false
	}
	depth := 1
	for u := t; u != s; u = sc.v[u].parent {
		depth++
	}
	buf = slices.Grow(buf, depth)[:len(buf)+depth]
	i := len(buf) - 1
	for u := t; ; u = sc.v[u].parent {
		buf[i] = u
		if u == s {
			return buf, true
		}
		i--
	}
}
