package shortest

import (
	"math"
	"slices"
	"sync"

	"kspdg/internal/graph"
)

// Generator enumerates the k shortest loopless paths from a source to a
// target one at a time, in ascending order of distance, using Yen's deviation
// scheme incrementally.  KSP-DG uses a Generator over the skeleton graph to
// produce reference paths lazily: each iteration consumes one more reference
// path and the termination test peeks at the next one, so eagerly computing
// all of them up front would be wasted work.
//
// The Generator is the one deviation kernel of the package — Yen drives a
// pooled Generator — and it holds four invariants:
//
//   - Output.  The Dist sequence is textbook Yen's (one spur search per
//     vertex of the previous path, bans kept in maps): exactly in exact
//     arithmetic, and up to rounding in floating point, where A* may settle a
//     vertex over a route a few ulps longer (see run).  Every path is a simple
//     s–t path whose Dist is its own length.  Which of two equally long paths
//     comes first may differ, since goal direction changes the order searches
//     settle ties in; the reference implementation in the tests pins the
//     sequence bit for bit on integer and on random real weights, and the
//     paths element for element where the weights are real-valued.
//   - Lawler's rule.  A candidate remembers the index it deviated at, and a
//     produced path spurs only from that index on.  At a smaller index the
//     root and the banned hops are those of a search already run when an
//     earlier path with that root was deviated, so textbook Yen finds a
//     candidate there that its dedup set rejects; skipping the search changes
//     the cost, never the output.
//   - Bans.  Root vertices (and the caller's forbidden vertices) are stamps in
//     the search scratch; the hops banned at a spur vertex are the next
//     vertices of the children of the root's node in a trie over the produced
//     paths, handed to the search as a short list it reads only while
//     expanding the spur vertex.  Banning the next vertex rather than an edge
//     id bans every parallel arc of the hop.  The deviation index travels
//     beside the paths, never inside graph.Path storage, which callers retain.
//   - Goal direction.  Every spur search is A* towards t (see first): on an
//     undirected view the search that finds the first path is rooted at t, so
//     it leaves behind the distance to t of every vertex it settled, and
//     those, truncated at the first path's length, are a consistent
//     heuristic at the price of one fill.  It is a lower bound only for the
//     weights it was taken under, so the view must not change while the
//     Generator runs; every graph.WeightedView in the tree is an immutable
//     graph.Snapshot.  Directed views have no in-arcs to search from t, so
//     their searches stay Dijkstra's.
//   - Shortcut.  The same search from t leaves a reverse shortest path tree
//     behind, and a spur search stops at the first vertex u it settles whose
//     heuristic is exact and whose tree path to t avoids the ban set and the
//     spur vertex (for u the spur vertex itself, whose first tree hop is not
//     a banned hop): u's key is then the spur's length, and the search lays
//     the tree path into its state (see searchScratch.shortcut).  It fires
//     only when u's key is strictly below the heap's next key: on a tie the
//     plain search may reach t over another, equally long path, and an
//     equally long path with more hops costs more spur searches later.  The
//     laid path's distances are summed forwards from the spur vertex, as the
//     plain search sums them, so every candidate's Dist keeps its bits.
//   - Cap.  A caller that takes at most limit paths (Yen's k,
//     KShortestDistinctLengths' maxEnumerate) never sees a candidate longer
//     than the m-th shortest one already in the heap, m the paths it has still
//     to take: those m are popped first, and later candidates only push it
//     further back.  So once m candidates are in, a spur search gives up when
//     its smallest key shows that it can only find longer ones — the spur
//     searches that find no path at all, and used to explore everything
//     reachable around the root, mostly end this way.  A search that finds a
//     candidate within the cap pops exactly what it would have without it, so
//     the first limit paths, and the spur-search count, are unchanged.
type Generator struct {
	view   graph.WeightedView
	s, t   graph.VertexID
	opts   *Options
	search WeightFunc // the metric, with the caller's forbidden edges at +Inf

	produced   []graph.Path
	prevDev    int // deviation index of the last produced path
	candidates candidateHeap
	seen       graph.PathSet
	trie       []trieNode
	nodeAt     []int32 // trie node of every prefix of the path being deviated
	nextBans   []graph.VertexID
	buf        []graph.VertexID
	searches   int // spur searches run so far; read by tests only
	settled    int // vertices those searches settled; read by tests only
	exhausted  bool

	h    []float64 // A*'s heuristic for the spur searches; nil on directed views
	hbuf []float64 // storage of h, kept across pooled reuse
	tree revTree   // the tree h was taken from; used only while h is set

	limit int       // paths the caller takes at most; 0 for no cap
	best  []float64 // the smallest candidate Dists, ascending, for the cap
}

// trieNode stands for one prefix of a produced path: the prefix's last vertex
// and its length, each hop priced by its cheapest arc under the search metric
// — the arc the search that found the hop took.  Node 0 is the root [s]; it
// is nobody's child, so 0 doubles as "none" in the child and sibling links.
type trieNode struct {
	dist    float64
	vertex  graph.VertexID
	child   int32
	sibling int32
}

// candidate is a path waiting in the heap with the index it deviated at.
type candidate struct {
	path graph.Path
	dev  int
}

// NewGenerator creates a Generator for paths from s to t under opts.
func NewGenerator(v graph.WeightedView, s, t graph.VertexID, opts *Options) *Generator {
	g := new(Generator)
	g.reset(v, s, t, opts)
	return g
}

// generatorPool recycles Generators across Yen calls.  Parallel partial
// searches (one goroutine per pair or per subgraph) each get their own, so no
// two in-flight searches ever share buffers.
var generatorPool = sync.Pool{New: func() interface{} { return new(Generator) }}

// pooledGenerator is NewGenerator on recycled buffers, for callers that take
// at most limit paths and hand the Generator back with recycle when they have
// copied out what they need.
func pooledGenerator(v graph.WeightedView, s, t graph.VertexID, opts *Options, limit int) *Generator {
	g := generatorPool.Get().(*Generator)
	g.reset(v, s, t, opts)
	g.limit = limit
	return g
}

// reset points g at a new query, keeping its buffers.
func (g *Generator) reset(v graph.WeightedView, s, t graph.VertexID, opts *Options) {
	g.view, g.s, g.t, g.opts = v, s, t, opts
	g.search = opts.searchWeight(v)
	g.produced = g.produced[:0]
	g.candidates = g.candidates[:0]
	g.seen.Reset()
	g.trie = g.trie[:0]
	g.prevDev, g.searches, g.settled, g.limit = 0, 0, 0, 0
	g.exhausted = false
	g.h = nil
}

// recycle returns g to the pool, dropping every reference it holds into its
// last query so that it pins neither the view nor the paths it handed out.
func (g *Generator) recycle() {
	g.view, g.opts, g.search, g.h = nil, nil, nil, nil
	clear(g.produced)
	clear(g.candidates) // pop zeroes the slots it vacates
	generatorPool.Put(g)
}

// Produced returns the paths generated so far, in order.
func (g *Generator) Produced() []graph.Path { return g.produced }

// Next returns the next shortest path that has not been returned yet.  The
// second return value is false when no further simple path exists.
func (g *Generator) Next() (graph.Path, bool) {
	if g.exhausted {
		return graph.Path{}, false
	}
	if len(g.produced) == 0 {
		first, ok := g.first()
		if !ok {
			g.exhausted = true
			return graph.Path{}, false
		}
		g.produced = append(g.produced, first)
		g.exhausted = g.s == g.t
		g.seen.Add(first)
		return first, true
	}
	// Deviate from the most recently produced path, then pop the best
	// candidate accumulated so far.
	g.deviate()
	if len(g.candidates) == 0 {
		g.exhausted = true
		return graph.Path{}, false
	}
	next := g.candidates.pop()
	g.produced = append(g.produced, next.path)
	g.prevDev = next.dev
	return next.path, true
}

// deviate runs Yen's deviation step on the last produced path: one spur
// search per vertex from its deviation index on, each avoiding the root
// before it and the hops produced paths with the same root take out of it,
// and pushes every new candidate onto the heap.  Under a limit each search
// is capped at the m-th shortest candidate, m the paths still to be taken.
func (g *Generator) deviate() {
	prev := g.produced[len(g.produced)-1].Vertices
	dev := g.prevDev
	g.insert(prev)
	sc := getScratch(g.view.NumVertices(), len(prev))
	sc.banCaller(g.opts)
	var tree *revTree
	if g.h != nil {
		tree = &g.tree
	}
	for _, u := range prev[:dev] {
		sc.ban(u)
	}
	m := 0 // paths still to be taken; 0 for no cap
	g.best = g.best[:0]
	if g.limit > 0 {
		m = g.limit - len(g.produced)
		for _, c := range g.candidates {
			g.keepBest(c.path.Dist, m)
		}
	}
	for j := dev; j+1 < len(prev); j++ {
		if j > dev {
			sc.ban(prev[j-1])
		}
		root := &g.trie[g.nodeAt[j]]
		g.nextBans = g.nextBans[:0]
		for c := root.child; c != 0; c = g.trie[c].sibling {
			g.nextBans = append(g.nextBans, g.trie[c].vertex)
		}
		// The slack keeps rounding from cutting a search that would find a
		// candidate as long as the m-th, which can still come first on a
		// tie: 41.8 + 23.8 is 65.6, but 65.6 - 41.8 is 23.799999999999997.
		bound := math.Inf(1)
		if m > 0 && len(g.best) == m {
			bound = g.best[m-1] - root.dist + 1e-9*max(1, g.best[m-1])
		}
		g.searches++
		g.settled += sc.spur(g.view, prev[j], g.t, g.search, g.h, g.nextBans, tree, bound)
		// The root is banned from the spur search, so root + spur path is
		// simple by construction.
		var ok bool
		g.buf, ok = sc.appendPath(append(g.buf[:0], prev[:j]...), prev[j], g.t)
		// Dedup before allocating: a duplicate candidate costs nothing.
		if !ok || !g.seen.AddSeq(g.buf) {
			continue
		}
		d := root.dist + sc.distTo(g.t)
		g.keepBest(d, m)
		g.candidates.push(candidate{
			path: graph.Path{Vertices: append([]graph.VertexID(nil), g.buf...), Dist: d},
			dev:  j,
		})
	}
	putScratch(sc)
}

// keepBest offers d to g.best, which keeps the m smallest Dists offered in
// ascending order, so g.best[m-1] is the m-th shortest candidate once it is
// full.  m is at most the caller's limit, so an insert costs little.
func (g *Generator) keepBest(d float64, m int) {
	if m <= 0 || len(g.best) == m && d >= g.best[m-1] {
		return
	}
	i, _ := slices.BinarySearch(g.best, d)
	g.best = slices.Insert(g.best, i, d)[:min(len(g.best)+1, m)]
}

// first finds the shortest path.  On an undirected view it searches from t
// until s settles, which finds the path (read from s along the parents) and
// leaves behind the distance d to t of every vertex closer to t than s, and
// its next hop towards t (the reverse tree the shortcut reads); the rest are
// at least R, the path's length, away.  h = min(d, R) is then a
// consistent lower bound on the distance to t in every spur search: d(u) ≤ w
// + d(v) on every arc, min(·, R) keeps the inequality, and a spur search bans
// at least what this search banned, which only lengthens distances.  This
// search bans the caller's forbidden vertices but s: a search's own source is
// never excluded, so a spur search from a forbidden s may leave it, and paths
// through s must count.
func (g *Generator) first() (graph.Path, bool) {
	if g.view.Directed() || g.s == g.t {
		return ShortestPath(g.view, g.s, g.t, g.opts)
	}
	n := g.view.NumVertices()
	sc := getScratch(n, 2)
	defer putScratch(sc)
	sc.banCaller(g.opts)
	if sc.v[g.t].banned == sc.bans {
		return graph.Path{}, false // a forbidden target is never reached
	}
	sc.v[g.s].banned = 0
	sc.run(g.view, g.t, g.s, g.search, nil, nil)
	verts, ok := sc.appendPath(nil, g.t, g.s)
	if !ok {
		return graph.Path{}, false
	}
	slices.Reverse(verts)
	// The search summed the path from t; Dist sums it from s, as a search
	// from s does, so that it has the bits of the plain algorithm's.
	dist := 0.0
	for i := 1; i < len(verts); i++ {
		dist += g.hop(verts[i-1], verts[i])
	}

	r := sc.v[g.s].dist
	g.hbuf = slices.Grow(g.hbuf[:0], n)[:n]
	g.tree.hops = slices.Grow(g.tree.hops[:0], n)[:n] // stale memos hold older stamps
	g.tree.t = g.t
	for u := range g.hbuf {
		g.hbuf[u] = r
		hop := &g.tree.hops[u]
		hop.next, hop.edge = graph.NoVertex, graph.NoEdge
		if st := &sc.v[u]; st.settled == sc.search {
			g.hbuf[u] = st.dist
			hop.next, hop.edge = st.parent, st.parentEdge
		}
	}
	g.h = g.hbuf
	return graph.Path{Vertices: verts, Dist: dist}, true
}

// insert adds a produced path to the prefix trie and records in nodeAt the
// node of each of its prefixes.  Every produced path is in the trie before it
// is deviated, so the children of nodeAt[j] are exactly the continuations
// that produced paths sharing p[:j+1] take — the hops Yen bans at spur j.
func (g *Generator) insert(p []graph.VertexID) {
	if len(g.trie) == 0 {
		g.trie = append(g.trie, trieNode{vertex: p[0]})
	}
	g.nodeAt = append(g.nodeAt[:0], 0)
	cur := int32(0)
	for i := 1; i < len(p); i++ {
		c := g.trie[cur].child
		for c != 0 && g.trie[c].vertex != p[i] {
			c = g.trie[c].sibling
		}
		if c == 0 {
			n := trieNode{vertex: p[i], dist: g.trie[cur].dist + g.hop(p[i-1], p[i]), sibling: g.trie[cur].child}
			c = int32(len(g.trie))
			g.trie = append(g.trie, n)
			g.trie[cur].child = c
		}
		g.nodeAt = append(g.nodeAt, c)
		cur = c
	}
}

// hop returns the length of the cheapest arc from u to w under the search
// metric; on a multigraph that is the arc a search crossing the hop took.
func (g *Generator) hop(u, w graph.VertexID) float64 {
	d := math.Inf(1)
	for _, a := range g.view.Neighbors(u) {
		if a.To == w {
			d = min(d, g.search(a.Edge))
		}
	}
	return d
}

// candidateHeap is a binary min-heap of candidates ordered by ComparePaths,
// with the sift order of container/heap but no interface boxing per push.
type candidateHeap []candidate

func (h candidateHeap) less(i, j int) bool { return graph.ComparePaths(h[i].path, h[j].path) < 0 }

func (h *candidateHeap) push(c candidate) {
	*h = append(*h, c)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *candidateHeap) pop() candidate {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && s.less(j+1, j) {
			j++
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	c := s[n]
	s[n] = candidate{}
	*h = s[:n]
	return c
}
