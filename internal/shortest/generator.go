package shortest

import (
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
// pooled Generator — and it holds three invariants:
//
//   - Output.  Paths come out in the order, with the vertex sequences and the
//     Dist bits, of textbook Yen (one spur search per vertex of the previous
//     path, bans kept in maps); the reference implementation in the tests
//     pins this element for element.
//   - Lawler's rule.  A candidate remembers the index it deviated at, and a
//     produced path spurs only from that index on.  At a smaller index the
//     root and the banned edges are those of a search already run when an
//     earlier path with that root was deviated, so textbook Yen finds a
//     candidate there that its dedup set rejects; skipping the search changes
//     the cost, never the output.
//   - Bans.  Root vertices (and the caller's forbidden vertices) are stamps in
//     the search scratch; the deviation edges of a spur vertex are the
//     children of the root's node in a trie over the produced paths, handed to
//     the search as a short list it reads only while expanding the spur
//     vertex.  The deviation index travels beside the paths, never inside
//     graph.Path storage, which callers retain.
type Generator struct {
	view   graph.WeightedView
	s, t   graph.VertexID
	opts   *Options
	metric WeightFunc // ranks paths
	search WeightFunc // metric, with the caller's forbidden edges at +Inf

	produced   []graph.Path
	prevDev    int // deviation index of the last produced path
	candidates candidateHeap
	seen       graph.PathSet
	trie       []trieNode
	nodeAt     []int32 // trie node of every prefix of the path being deviated
	edgeBans   []graph.EdgeID
	buf        []graph.VertexID
	searches   int // spur searches run so far; read by tests only
	exhausted  bool
}

// trieNode stands for one prefix of a produced path: the prefix's last
// vertex, the edge EdgeBetween reports from the parent prefix's last vertex
// (NoEdge if it reports none), and the prefix's length under the metric along
// those edges.  Node 0 is the root [s]; it is nobody's child, so 0 doubles as
// "none" in the child and sibling links.
type trieNode struct {
	dist    float64
	vertex  graph.VertexID
	edge    graph.EdgeID
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

// pooledGenerator is NewGenerator on recycled buffers, for callers that hand
// the Generator back with recycle when they have copied out what they need.
func pooledGenerator(v graph.WeightedView, s, t graph.VertexID, opts *Options) *Generator {
	g := generatorPool.Get().(*Generator)
	g.reset(v, s, t, opts)
	return g
}

// reset points g at a new query, keeping its buffers.
func (g *Generator) reset(v graph.WeightedView, s, t graph.VertexID, opts *Options) {
	g.view, g.s, g.t, g.opts = v, s, t, opts
	g.metric, g.search = opts.weightFn(v), opts.searchWeight(v)
	g.produced = g.produced[:0]
	g.candidates = g.candidates[:0]
	g.seen.Reset()
	g.trie = g.trie[:0]
	g.prevDev, g.searches = 0, 0
	g.exhausted = false
}

// recycle returns g to the pool, dropping every reference it holds into its
// last query so that it pins neither the view nor the paths it handed out.
func (g *Generator) recycle() {
	g.view, g.opts, g.metric, g.search = nil, nil, nil, nil
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
		first, ok := ShortestPath(g.view, g.s, g.t, g.opts)
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
// before it and the edges produced paths with the same root take out of it,
// and pushes every new candidate onto the heap.
func (g *Generator) deviate() {
	prev := g.produced[len(g.produced)-1].Vertices
	dev := g.prevDev
	g.insert(prev)
	sc := getScratch(g.view.NumVertices(), len(prev))
	sc.banCaller(g.opts)
	for _, u := range prev[:dev] {
		sc.ban(u)
	}
	for j := dev; j+1 < len(prev); j++ {
		if j > dev {
			sc.ban(prev[j-1])
		}
		root := &g.trie[g.nodeAt[j]]
		g.edgeBans = g.edgeBans[:0]
		for c := root.child; c != 0; c = g.trie[c].sibling {
			g.edgeBans = append(g.edgeBans, g.trie[c].edge)
		}
		g.searches++
		sc.run(g.view, prev[j], g.t, g.search, g.edgeBans)
		// The root is banned from the spur search, so root + spur path is
		// simple by construction.
		var ok bool
		g.buf, ok = sc.appendPath(append(g.buf[:0], prev[:j]...), prev[j], g.t)
		// Dedup before allocating: a duplicate candidate costs nothing.
		if !ok || !g.seen.AddSeq(g.buf) {
			continue
		}
		g.candidates.push(candidate{
			path: graph.Path{
				Vertices: append([]graph.VertexID(nil), g.buf...),
				Dist:     root.dist + sc.distTo(g.t),
			},
			dev: j,
		})
	}
	putScratch(sc)
}

// insert adds a produced path to the prefix trie and records in nodeAt the
// node of each of its prefixes.  Every produced path is in the trie before it
// is deviated, so the children of nodeAt[j] are exactly the continuations
// that produced paths sharing p[:j+1] take — the edges Yen bans at spur j.
func (g *Generator) insert(p []graph.VertexID) {
	if len(g.trie) == 0 {
		g.trie = append(g.trie, trieNode{vertex: p[0], edge: graph.NoEdge})
	}
	g.nodeAt = append(g.nodeAt[:0], 0)
	cur := int32(0)
	for i := 1; i < len(p); i++ {
		c := g.trie[cur].child
		for c != 0 && g.trie[c].vertex != p[i] {
			c = g.trie[c].sibling
		}
		if c == 0 {
			n := trieNode{vertex: p[i], edge: graph.NoEdge, dist: g.trie[cur].dist, sibling: g.trie[cur].child}
			if e, ok := g.view.EdgeBetween(p[i-1], p[i]); ok {
				n.edge = e
				n.dist += g.metric(e)
			}
			c = int32(len(g.trie))
			g.trie = append(g.trie, n)
			g.trie[cur].child = c
		}
		g.nodeAt = append(g.nodeAt, c)
		cur = c
	}
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
