package shortest

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/workload"
)

// kernelCase is one (view, s, t, k, opts) the kernel is compared against the
// textbook reference on.  real marks real-valued weights, where no two paths
// tie.
type kernelCase struct {
	g    *graph.Graph
	s, t graph.VertexID
	k    int
	opts *Options
	real bool
}

// randomKernelCase draws a small graph that is hard on tie-breaking and on
// the ban bookkeeping: directed or not, small-integer weights (zero included)
// so that many paths tie, parallel edges (a deviation must ban every arc of a
// hop, not one edge id), sparse enough that some targets are unreachable,
// s == t now and then, and optionally a custom metric and caller-forbidden
// vertices and edges (some mapped to false, some out of range).  With real
// set, the weights and the custom metric are real-valued instead.
func randomKernelCase(rng *rand.Rand, real bool) kernelCase {
	n := 2 + rng.Intn(13)
	directed := rng.Intn(2) == 0
	b := graph.NewBuilder(n, directed)
	maxW := 1 + rng.Intn(4)
	for i, m := 0, rng.Intn(3*n+1); i < m; i++ {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		if real {
			b.AddEdge(u, v, rng.Float64()*float64(maxW))
		} else {
			b.AddEdge(u, v, float64(rng.Intn(maxW+1)))
		}
	}
	c := kernelCase{
		g:    b.Build(),
		s:    graph.VertexID(rng.Intn(n)),
		t:    graph.VertexID(rng.Intn(n)),
		k:    rng.Intn(12),
		real: real,
	}
	if rng.Intn(3) == 0 {
		return c
	}
	c.opts = &Options{}
	if rng.Intn(2) == 0 {
		if real {
			metric := make([]float64, c.g.NumEdges())
			for e := range metric {
				metric[e] = 0.5 + rng.Float64()
			}
			c.opts.Weight = func(e graph.EdgeID) float64 { return metric[e] }
		} else {
			c.opts.Weight = func(e graph.EdgeID) float64 { return float64((int(e)*7)%3) + 0.5 }
		}
	}
	if rng.Intn(2) == 0 {
		c.opts.ForbiddenVertices = map[graph.VertexID]bool{graph.VertexID(n + 3): true, -1: true}
		for i := rng.Intn(3); i > 0; i-- {
			c.opts.ForbiddenVertices[graph.VertexID(rng.Intn(n))] = rng.Intn(4) != 0
		}
	}
	if ne := c.g.NumEdges(); ne > 0 && rng.Intn(2) == 0 {
		c.opts.ForbiddenEdges = map[graph.EdgeID]bool{graph.EdgeID(ne + 1): true}
		for i := rng.Intn(4); i > 0; i-- {
			c.opts.ForbiddenEdges[graph.EdgeID(rng.Intn(ne))] = rng.Intn(4) != 0
		}
	}
	return c
}

// samePaths reports whether got and want agree element for element: same
// vertex sequences, same Dist bits.
func samePaths(got, want []graph.Path) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Equal(want[i]) || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

// sameDists reports whether got and want have the same Dist bits, in order.
func sameDists(got, want []graph.Path) bool {
	return slices.EqualFunc(got, want, func(a, b graph.Path) bool {
		return math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
	})
}

// checkPaths holds paths to what every k-shortest-paths answer must be:
// simple s–t paths over arcs the caller allows and through no vertex it
// forbids past s, each with its own length as Dist, pairwise distinct, in
// ascending order.
func checkPaths(t *testing.T, c kernelCase, paths []graph.Path) {
	t.Helper()
	var seen graph.PathSet
	for i, p := range paths {
		if p.Source() != c.s || p.Target() != c.t || !p.IsSimple() || !seen.Add(p) {
			t.Fatalf("path #%d %v: not a new simple %d->%d path", i, p, c.s, c.t)
		}
		length := 0.0
		for j := 1; j < len(p.Vertices); j++ {
			if refVertexForbidden(c.opts, p.Vertices[j]) {
				t.Fatalf("path #%d %v enters forbidden vertex %d", i, p, p.Vertices[j])
			}
			length += refHop(c.g.Snapshot(), p.Vertices[j-1], p.Vertices[j], c.opts)
		}
		if math.IsInf(length, 1) || math.Abs(length-p.Dist) > 1e-9*max(1, length) {
			t.Fatalf("path #%d %v: Dist %v, its arcs sum to %v", i, p, p.Dist, length)
		}
		if i > 0 && paths[i-1].Dist > p.Dist {
			t.Fatalf("path #%d %v comes after the longer %v", i, p, paths[i-1])
		}
	}
}

// checkKernelCase holds the kernel to its contract on one case: Yen and a
// Generator both return valid paths with exactly the reference's Dist
// sequence (and exactly its paths where weights are real-valued), Yen at
// every smaller k returns a prefix of Yen at c.k, the Generator yields Yen's
// paths and then stays exhausted, and its spur searches respect Lawler's
// bound.  It returns the spur searches the Generator and
// textbook Yen ran, and whether their paths were the same.
func checkKernelCase(t *testing.T, c kernelCase) (searches, textbook int, samePathsAsTextbook bool) {
	t.Helper()
	want, textbook := refYen(c.g.Snapshot(), c.s, c.t, c.k, c.opts)
	matches := func(got []graph.Path) bool {
		return sameDists(got, want) && (!c.real || samePaths(got, want))
	}
	got := Yen(c.g.Snapshot(), c.s, c.t, c.k, c.opts)
	if !matches(got) {
		t.Fatalf("Yen(%d->%d, k=%d, opts=%+v)\n got %v\nwant %v", c.s, c.t, c.k, c.opts, got, want)
	}
	checkPaths(t, c, got)
	// The snapshot cache answers k from a list computed at a larger k, so the
	// answer at every smaller k must be a prefix of this one, element for
	// element and bit for bit.
	for k := 1; k < c.k; k++ {
		if short := Yen(c.g.Snapshot(), c.s, c.t, k, c.opts); !samePaths(short, got[:min(k, len(got))]) {
			t.Fatalf("Yen(%d->%d, k=%d, opts=%+v) = %v, not the first %d of k=%d's %v", c.s, c.t, k, c.opts, short, k, c.k, got)
		}
	}

	gen := NewGenerator(c.g.Snapshot(), c.s, c.t, c.opts)
	bound := 0 // Σ(len − dev) over the paths deviated so far
	for i := 0; i < c.k; i++ {
		if i > 0 && !gen.exhausted {
			bound += gen.produced[i-1].Len() - gen.prevDev
		}
		_, ok := gen.Next()
		if ok != (i < len(want)) {
			t.Fatalf("Generator.Next #%d: ok=%v, reference has %d paths", i, ok, len(want))
		}
		if !ok {
			if _, again := gen.Next(); again {
				t.Fatalf("Generator produced a path after reporting exhaustion")
			}
			break
		}
	}
	if !matches(gen.Produced()) {
		t.Fatalf("Generator produced %v, reference %v", gen.Produced(), want)
	}
	if !samePaths(gen.Produced(), got) {
		t.Fatalf("Generator produced %v, Yen on a pooled Generator %v", gen.Produced(), got)
	}
	if gen.searches > bound {
		t.Fatalf("%d spur searches for %d paths, Lawler's rule allows %d", gen.searches, len(want), bound)
	}
	return gen.searches, textbook, samePaths(got, want)
}

// On every case of both streams the kernel runs no more spur searches than
// textbook Yen, even where ties make its paths differ from the reference's.
func TestKernelMatchesTextbookYen(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 300
	}
	ties := rand.New(rand.NewSource(24))
	real := rand.New(rand.NewSource(25))
	for i := 0; i < n; i++ {
		for _, c := range []kernelCase{randomKernelCase(ties, false), randomKernelCase(real, true)} {
			if searches, textbook, _ := checkKernelCase(t, c); searches > textbook {
				t.Fatalf("case %d (real %v): %d spur searches, textbook Yen ran %d", i, c.real, searches, textbook)
			}
		}
	}
}

// The fuzz target holds every input to the contract, and to textbook Yen's
// search count wherever the kernel returns the reference's paths.  Where ties
// make them differ, an equally long path can have more hops and so cost more
// spur searches — zero-weight arcs make that unbounded — and about one input
// in five thousand does (seed -380 in testdata, a 4-hop first path where the
// reference has 3).  The count is pinned without exception on the seeded
// streams above and on the road network below.
func FuzzKernelMatchesTextbookYen(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, real := range []bool{false, true} {
			c := randomKernelCase(rand.New(rand.NewSource(seed)), real)
			if searches, textbook, same := checkKernelCase(t, c); same && searches > textbook {
				t.Fatalf("%d spur searches over textbook Yen's paths, textbook Yen ran %d", searches, textbook)
			}
		}
	})
}

// On the benchmark's road network (integer weights 1–10, so equally long
// paths abound) the kernel returns textbook Yen's Dist sequence and runs no
// more spur searches than it on every query, although ties make the paths
// themselves differ on a good share of them.
func TestKernelOnRoadNetwork(t *testing.T) {
	ds, err := workload.Generate(workload.RoadNetworkSpec{
		Width: 30, Height: 20,
		DiagonalFraction: 0.15, MissingFraction: 0.25,
		MinWeight: 1, MaxWeight: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	queries := 60
	if testing.Short() {
		queries = 15
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{3, 8, 20} {
		for i := 0; i < queries; i++ {
			s, d := graph.VertexID(rng.Intn(g.NumVertices())), graph.VertexID(rng.Intn(g.NumVertices()))
			c := kernelCase{g: g, s: s, t: d, k: k}
			if searches, textbook, _ := checkKernelCase(t, c); searches > textbook {
				t.Fatalf("%d->%d, k=%d: %d spur searches, textbook Yen ran %d", s, d, k, searches, textbook)
			}
		}
	}
}

// On a multigraph a deviation must ban the hop, not one of its arcs: banning
// the edge id EdgeBetween reports let the parallel arc re-find 0->3, the dedup
// set dropped that candidate, and 0->6->4 (3) came third although 0->3->5->4
// (2) exists.  Drawn from TestKernelMatchesTextbookYen's stream.
func TestYenBansParallelArcs(t *testing.T) {
	b := graph.NewBuilder(7, false)
	for _, e := range []graph.Edge{
		{U: 5, V: 4, Weight: 2}, {U: 6, V: 0, Weight: 1}, {U: 4, V: 6, Weight: 2}, {U: 1, V: 2, Weight: 1},
		{U: 3, V: 1, Weight: 0}, {U: 3, V: 0, Weight: 0}, {U: 1, V: 4, Weight: 2}, {U: 3, V: 0, Weight: 1},
		{U: 6, V: 1, Weight: 2}, {U: 1, V: 3, Weight: 0}, {U: 2, V: 3, Weight: 2}, {U: 3, V: 5, Weight: 1},
		{U: 5, V: 4, Weight: 1}, {U: 0, V: 4, Weight: 0}, {U: 3, V: 0, Weight: 1}, {U: 3, V: 2, Weight: 2},
		{U: 6, V: 0, Weight: 2}, {U: 1, V: 3, Weight: 0},
	} {
		b.AddEdge(e.U, e.V, e.Weight)
	}
	c := kernelCase{g: b.Build(), s: 0, t: 4, k: 3}
	want := []float64{0, 2, 2}
	ref, _ := refYen(c.g.Snapshot(), c.s, c.t, c.k, nil)
	got := Yen(c.g.Snapshot(), c.s, c.t, c.k, nil)
	for name, paths := range map[string][]graph.Path{"refYen": ref, "Yen": got} {
		if !slices.Equal(lengths(paths), want) {
			t.Errorf("%s: %v, want lengths %v", name, paths, want)
		}
	}
	checkPaths(t, c, got)
}

func lengths(paths []graph.Path) []float64 {
	out := make([]float64, len(paths))
	for i, p := range paths {
		out[i] = p.Dist
	}
	return out
}

// The first path's search leaves behind h = min(d, R): d the distance to the
// target, R the first path's length.  It is consistent, and a spur search
// goal-directed by it finds the plain search's distance while settling no
// more vertices.
func TestGoalDirection(t *testing.T) {
	g := gridForBench(12, 10) // real-valued weights: no ties to settle
	n := g.NumVertices()
	target := graph.VertexID(n - 1)
	exact := Dijkstra(g.Snapshot(), target, nil).Dist
	settled := func(sc *searchScratch) (c int) {
		for _, st := range sc.v[:n] {
			if st.settled == sc.search {
				c++
			}
		}
		return c
	}
	for _, s := range []graph.VertexID{0, 55, 100, 118} {
		gen := NewGenerator(g.Snapshot(), s, target, nil)
		if _, ok := gen.Next(); !ok || gen.h == nil {
			t.Fatalf("from %d: no first path or no heuristic", s)
		}
		h := gen.h
		for u := range h {
			if h[u] != min(exact[u], exact[s]) {
				t.Fatalf("from %d: h(%d) = %v, distance %v, first path %v", s, u, h[u], exact[u], exact[s])
			}
			for _, a := range g.Neighbors(graph.VertexID(u)) {
				if h[u] > g.Snapshot().Weight(a.Edge)+h[a.To] {
					t.Fatalf("from %d: h(%d) = %v > %v + h(%d) = %v", s, u, h[u], g.Snapshot().Weight(a.Edge), a.To, h[a.To])
				}
			}
		}
		// Spur searches under a root ban and a banned first hop, as Yen runs
		// them; unless the heuristic is flat, it must actually save work.
		plain, astar := 0, 0
		for spur := graph.VertexID(0); spur < target; spur += 5 {
			run := func(h []float64) (float64, int) {
				sc := getScratch(n, 2)
				defer putScratch(sc)
				sc.newBans()
				if spur > 0 {
					sc.ban(spur - 1)
				}
				sc.run(g.Snapshot(), spur, target, g.Snapshot().Weight, h, []graph.VertexID{g.Neighbors(spur)[0].To})
				return sc.distTo(target), settled(sc)
			}
			wantDist, wantSettled := run(nil)
			gotDist, gotSettled := run(h)
			if math.Float64bits(gotDist) != math.Float64bits(wantDist) || gotSettled > wantSettled {
				t.Errorf("from %d, spur %d: A* %v after %d settled, Dijkstra %v after %d",
					s, spur, gotDist, gotSettled, wantDist, wantSettled)
			}
			plain, astar = plain+wantSettled, astar+gotSettled
		}
		if astar >= plain {
			t.Errorf("from %d: A* settled %d vertices, Dijkstra %d", s, astar, plain)
		}
	}
}

// The first path's search bans the caller's forbidden vertices but the
// source: a spur search from a forbidden source may leave it, so the
// heuristic must count paths through it.
func TestGoalDirectionForbiddenSource(t *testing.T) {
	g := gridForBench(6, 6)
	opts := &Options{ForbiddenVertices: map[graph.VertexID]bool{0: true, 14: true}}
	c := kernelCase{g: g, s: 0, t: 35, k: 30, opts: opts, real: true}
	checkKernelCase(t, c)
	gen := NewGenerator(g.Snapshot(), c.s, c.t, opts)
	if _, ok := gen.Next(); !ok || gen.h == nil {
		t.Fatal("a forbidden source left no first path or no heuristic")
	}
}

// A graph's weights can drop between Next calls, but the Generator searches
// the snapshot it was given, so the heuristic taken with the first path stays
// a lower bound.  Were the drop visible, h(4) = 20 (capped at the first
// path's length) would overestimate, since 4 would be 2 from t; on the frozen
// snapshot the second path is 0->3->1 (21).
func TestGoalDirectionDropsStaleHeuristic(t *testing.T) {
	b := graph.NewBuilder(6, false)
	var slow graph.EdgeID
	for _, e := range []graph.Edge{
		{U: 0, V: 2, Weight: 10}, {U: 2, V: 1, Weight: 10}, // the first path, 20
		{U: 0, V: 3, Weight: 1}, {U: 3, V: 1, Weight: 20}, // 21
		{U: 0, V: 4, Weight: 2}, {U: 4, V: 5, Weight: 30}, {U: 5, V: 1, Weight: 1}, // 33, then 4
	} {
		id, err := b.AddEdge(e.U, e.V, e.Weight)
		if err != nil {
			t.Fatal(err)
		}
		if e.Weight == 30 {
			slow = id
		}
	}
	g := b.Build()
	gen := NewGenerator(g.Snapshot(), 0, 1, nil)
	if p, ok := gen.Next(); !ok || p.Dist != 20 || gen.h == nil {
		t.Fatalf("first path %v (ok %v, heuristic %v), want length 20 and a heuristic", p, ok, gen.h != nil)
	}
	if err := g.ApplyUpdates([]graph.WeightUpdate{{Edge: slow, NewWeight: 1}}); err != nil {
		t.Fatal(err)
	}
	want := graph.Path{Vertices: []graph.VertexID{0, 3, 1}, Dist: 21}
	if p, ok := gen.Next(); !ok || !samePaths([]graph.Path{p}, []graph.Path{want}) {
		t.Errorf("second path %v (ok %v), want %v", p, ok, want)
	}
}

// Lawler's rule has to save something where paths are long: on a grid,
// clearly fewer spur searches than one per vertex per produced path.
func TestKernelSkipsRepeatedSpurSearches(t *testing.T) {
	g := gridForBench(8, 8)
	const k = 20
	_, textbook := refYen(g.Snapshot(), 0, 63, k, nil)
	gen := NewGenerator(g.Snapshot(), 0, 63, nil)
	for i := 0; i < k; i++ {
		if _, ok := gen.Next(); !ok {
			t.Fatalf("grid ran out of paths at %d", i)
		}
	}
	if gen.searches*4 > textbook*3 {
		t.Errorf("kernel ran %d spur searches, textbook Yen %d: expected under three quarters", gen.searches, textbook)
	}
}

// The generation counter of a pooled scratch wraps after 2^32 searches; the
// stamps must be cleared before that happens, not reinterpreted.
func TestScratchGenerationWrap(t *testing.T) {
	g := gridForBench(4, 4)
	sc := new(searchScratch)
	sc.reserve(g.NumVertices(), 2)
	sc.newBans()
	sc.ban(5)
	sc.run(g.Snapshot(), 0, 15, g.Snapshot().Weight, nil, nil)
	want, _ := sc.appendPath(nil, 0, 15)

	// Plant stamps that a wrapped counter would run into.
	for i := range sc.v {
		sc.v[i].settled, sc.v[i].banned, sc.v[i].reached = 1, 1, 2
	}
	sc.gen = math.MaxUint32 - 1
	sc.reserve(g.NumVertices(), 2)
	sc.newBans()
	sc.ban(5)
	sc.run(g.Snapshot(), 0, 15, g.Snapshot().Weight, nil, nil)
	got, ok := sc.appendPath(nil, 0, 15)
	if !ok || !slices.Equal(got, want) {
		t.Errorf("after wrap: path %v ok=%v, want %v", got, ok, want)
	}
	if sc.gen > 4 {
		t.Errorf("generation counter %d: reserve did not restart it", sc.gen)
	}
}

// A spur search stops at the first settled vertex whose tree path to t is
// clean.  On this ladder the first path runs along the top rail 0-1-…-8-9 (9)
// and the bottom rail 0-b1-…-b8-9 (9.9) is the second; the rungs a_i–b_i cost
// about 5.  Every bottom vertex is closer to t than s, so the search from t
// that found the first path left its tree path along the bottom rail, clear
// of every root.  Deviating from the first path at spur a_i (or at s, whose
// top hop is banned), the search settles the spur, then its bottom neighbour,
// and lays that neighbour's tree path: two vertices per spur search, where
// the search run to t settled 62 over the nine.
func TestSpurSearchStopsOnCleanTreePath(t *testing.T) {
	const rungs = 8
	tgt := graph.VertexID(rungs + 1)
	bottom := func(i int) graph.VertexID { return graph.VertexID(rungs + 1 + i) } // b_i, 1 ≤ i ≤ 8
	b := graph.NewBuilder(2*rungs+2, false)
	for i := 0; i <= rungs; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1) // top rail
	}
	b.AddEdge(0, bottom(1), 1.1)
	for i := 1; i < rungs; i++ {
		b.AddEdge(bottom(i), bottom(i+1), 1.1)
	}
	b.AddEdge(bottom(rungs), tgt, 1.1)
	for i := 1; i <= rungs; i++ {
		b.AddEdge(graph.VertexID(i), bottom(i), 5+0.01*float64(i)) // no two detours tie
	}
	g := b.Build()

	gen := NewGenerator(g.Snapshot(), 0, tgt, nil)
	gen.Next()
	second, ok := gen.Next()
	if !ok || second.Len() != rungs+1 || second.Vertices[1] != bottom(1) {
		t.Fatalf("second path %v (ok %v), want the bottom rail", second, ok)
	}
	if gen.searches != rungs+1 || gen.settled > 2*gen.searches {
		t.Errorf("%d spur searches settled %d vertices, want at most 2 each", gen.searches, gen.settled)
	}
	checkKernelCase(t, kernelCase{g: g, s: 0, t: tgt, k: 12, real: true})
}

// A Generator told that its caller takes k paths caps each spur search at the
// k-th shortest candidate it still needs.  Corner to corner on the benchmark's
// road network at k = 8 that leaves the paths, their bits and the spur-search
// count alone, while the searches settle 212 vertices instead of 2,216: most
// of the difference is searches that find no path at all, which without the
// cap explore everything reachable around the root.
func TestCapStopsHopelessSpurSearches(t *testing.T) {
	ds, err := workload.Generate(workload.RoadNetworkSpec{
		Width: 30, Height: 20,
		DiagonalFraction: 0.15, MissingFraction: 0.25,
		MinWeight: 1, MaxWeight: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph.Snapshot()
	const k = 8
	s, tgt := graph.VertexID(0), graph.VertexID(g.NumVertices()-1)
	capped, free := pooledGenerator(g, s, tgt, nil, k), NewGenerator(g, s, tgt, nil)
	defer capped.recycle()
	for i := 0; i < k; i++ {
		if _, ok := capped.Next(); !ok {
			t.Fatalf("ran out of paths at %d", i)
		}
		free.Next()
	}
	if !samePaths(capped.Produced(), free.Produced()) || capped.searches != free.searches {
		t.Fatalf("capped: %v after %d spur searches\nfree: %v after %d", capped.Produced(), capped.searches, free.Produced(), free.searches)
	}
	if capped.settled*4 > free.settled {
		t.Errorf("capped spur searches settled %d vertices, uncapped %d: expected under a quarter", capped.settled, free.settled)
	}
}

// The cap keeps a candidate exactly as long as the m-th: on a tie it can
// still come first.  The first path is 0-1-2-9 (60).  The spur at 0 finds
// 0-8-9 (65.6) and the spur at 2 finds 0-1-2-3-9, 41.8 + 23.8 = 65.6 as
// well, which sorts first; but 65.6 - 41.8 is 23.799999999999997, so a cap
// without slack would cut that search just short of its target.
func TestCapKeepsTiesWithTheLastCandidate(t *testing.T) {
	b := graph.NewBuilder(10, false)
	for _, e := range []graph.Edge{
		{U: 0, V: 1, Weight: 20.9}, {U: 1, V: 2, Weight: 20.9}, {U: 2, V: 9, Weight: 18.2},
		{U: 0, V: 8, Weight: 32.8}, {U: 8, V: 9, Weight: 32.8},
		{U: 2, V: 3, Weight: 11.9}, {U: 3, V: 9, Weight: 11.9},
	} {
		b.AddEdge(e.U, e.V, e.Weight)
	}
	g := b.Build().Snapshot()
	gen := NewGenerator(g, 0, 9, nil)
	gen.Next()
	want, _ := gen.Next()
	if want.Len() != 4 || want.Dist != 65.6 {
		t.Fatalf("uncapped second path %v, want 0-1-2-3-9 (65.6)", want)
	}
	if got := Yen(g, 0, 9, 2, nil); len(got) != 2 || !samePaths(got[1:], []graph.Path{want}) {
		t.Errorf("Yen's second path %v, want %v", got[1:], want)
	}
}
