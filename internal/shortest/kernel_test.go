package shortest

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kspdg/internal/graph"
)

// kernelCase is one (view, s, t, k, opts) the kernel is compared against the
// textbook reference on.
type kernelCase struct {
	g    *graph.Graph
	s, t graph.VertexID
	k    int
	opts *Options
}

// randomKernelCase draws a small graph that is hard on tie-breaking and on
// the ban bookkeeping: directed or not, small-integer weights (zero included)
// so that many paths tie, parallel edges (EdgeBetween names only one of them,
// so the dedup set must absorb the rest), sparse enough that some targets are
// unreachable, s == t now and then, and optionally a custom metric and
// caller-forbidden vertices and edges (some mapped to false, some out of
// range).
func randomKernelCase(rng *rand.Rand) kernelCase {
	n := 2 + rng.Intn(13)
	directed := rng.Intn(2) == 0
	b := graph.NewBuilder(n, directed)
	maxW := 1 + rng.Intn(4)
	for i, m := 0, rng.Intn(3*n+1); i < m; i++ {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v, float64(rng.Intn(maxW+1)))
		}
	}
	c := kernelCase{
		g: b.Build(),
		s: graph.VertexID(rng.Intn(n)),
		t: graph.VertexID(rng.Intn(n)),
		k: rng.Intn(12),
	}
	if rng.Intn(3) == 0 {
		return c
	}
	c.opts = &Options{}
	if rng.Intn(2) == 0 {
		c.opts.Weight = func(e graph.EdgeID) float64 { return float64((int(e)*7)%3) + 0.5 }
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

// checkKernelCase holds the kernel to its contract on one case: Yen returns
// exactly the reference's paths, a Generator yields exactly that sequence and
// then stays exhausted, and the spur searches it ran respect Lawler's bound.
func checkKernelCase(t *testing.T, c kernelCase) {
	t.Helper()
	want, refSearches := refYen(c.g, c.s, c.t, c.k, c.opts)
	if got := Yen(c.g, c.s, c.t, c.k, c.opts); !samePaths(got, want) {
		t.Fatalf("Yen(%d->%d, k=%d, opts=%+v)\n got %v\nwant %v", c.s, c.t, c.k, c.opts, got, want)
	}

	gen := NewGenerator(c.g, c.s, c.t, c.opts)
	bound := 0 // Σ(len − dev) over the paths deviated so far
	for i := 0; i < c.k; i++ {
		if i > 0 && !gen.exhausted {
			bound += gen.produced[i-1].Len() - gen.prevDev
		}
		p, ok := gen.Next()
		if ok != (i < len(want)) {
			t.Fatalf("Generator.Next #%d: ok=%v, reference has %d paths", i, ok, len(want))
		}
		if !ok {
			if _, again := gen.Next(); again {
				t.Fatalf("Generator produced a path after reporting exhaustion")
			}
			break
		}
		if !samePaths([]graph.Path{p}, want[i:i+1]) {
			t.Fatalf("Generator.Next #%d = %v, reference %v", i, p, want[i])
		}
	}
	if !samePaths(gen.Produced(), want) {
		t.Fatalf("Generator.Produced() = %v, reference %v", gen.Produced(), want)
	}
	if gen.searches > bound {
		t.Fatalf("%d spur searches for %d paths, Lawler's rule allows %d", gen.searches, len(want), bound)
	}
	if gen.searches > refSearches {
		t.Fatalf("%d spur searches, textbook Yen ran %d", gen.searches, refSearches)
	}
}

func TestKernelMatchesTextbookYen(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 300
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < n; i++ {
		checkKernelCase(t, randomKernelCase(rng))
	}
}

func FuzzKernelMatchesTextbookYen(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkKernelCase(t, randomKernelCase(rand.New(rand.NewSource(seed))))
	})
}

// Lawler's rule has to save something where paths are long: on a grid,
// clearly fewer spur searches than one per vertex per produced path.
func TestKernelSkipsRepeatedSpurSearches(t *testing.T) {
	g := gridForBench(8, 8)
	const k = 20
	_, textbook := refYen(g, 0, 63, k, nil)
	gen := NewGenerator(g, 0, 63, nil)
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
	sc.run(g, 0, 15, g.Weight, nil)
	want, _ := sc.appendPath(nil, 0, 15)

	// Plant stamps that a wrapped counter would run into.
	for i := range sc.v {
		sc.v[i].settled, sc.v[i].banned, sc.v[i].reached = 1, 1, 2
	}
	sc.gen = math.MaxUint32 - 1
	sc.reserve(g.NumVertices(), 2)
	sc.newBans()
	sc.ban(5)
	sc.run(g, 0, 15, g.Weight, nil)
	got, ok := sc.appendPath(nil, 0, 15)
	if !ok || !slices.Equal(got, want) {
		t.Errorf("after wrap: path %v ok=%v, want %v", got, ok, want)
	}
	if sc.gen > 4 {
		t.Errorf("generation counter %d: reserve did not restart it", sc.gen)
	}
}
