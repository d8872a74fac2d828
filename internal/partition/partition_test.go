package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"kspdg/internal/graph"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
)

func TestPartitionPaperGraph(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := PartitionGraph(g, 6)
	if err != nil {
		t.Fatalf("PartitionGraph: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.NumSubgraphs() < 4 {
		t.Errorf("expected at least 4 subgraphs for z=6, got %d", p.NumSubgraphs())
	}
	if len(p.BoundaryVertices()) == 0 {
		t.Errorf("expected boundary vertices")
	}
	// Every boundary vertex must belong to at least two subgraphs.
	for _, v := range p.BoundaryVertices() {
		if len(p.SubgraphsOf(v)) < 2 {
			t.Errorf("boundary vertex %d in %d subgraphs", v, len(p.SubgraphsOf(v)))
		}
		if !p.IsBoundary(v) {
			t.Errorf("IsBoundary(%d) = false for listed boundary vertex", v)
		}
	}
}

func TestPartitionZTooSmall(t *testing.T) {
	g := testutil.LineGraph(t, 4)
	if _, err := PartitionGraph(g, 1); err == nil {
		t.Errorf("z=1 should be rejected")
	}
}

func TestPartitionSingleSubgraph(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := PartitionGraph(g, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumSubgraphs() != 1 {
		t.Errorf("z=|V| should give a single subgraph, got %d", p.NumSubgraphs())
	}
	if len(p.BoundaryVertices()) != 0 {
		t.Errorf("single subgraph should have no boundary vertices")
	}
}

func TestPartitionCoversAllEdgesOnce(t *testing.T) {
	g := testutil.GridGraph(8, 8, 1)
	p, err := PartitionGraph(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sg := range p.Subgraphs {
		total += sg.NumEdges()
		if sg.NumVertices() > 10 {
			t.Errorf("subgraph %d has %d vertices > z", sg.ID, sg.NumVertices())
		}
	}
	if total != g.NumEdges() {
		t.Errorf("edges covered %d, want %d", total, g.NumEdges())
	}
}

func TestSubgraphLocalGlobalMapping(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range p.Subgraphs {
		for li, gv := range sg.Globals {
			l, ok := sg.ToLocal(gv)
			if !ok || l != graph.VertexID(li) {
				t.Errorf("subgraph %d: ToLocal(%d) = %d,%v; want %d,true", sg.ID, gv, l, ok, li)
			}
			if sg.ToGlobal(graph.VertexID(li)) != gv {
				t.Errorf("subgraph %d: ToGlobal(%d) != %d", sg.ID, li, gv)
			}
			if !sg.Contains(gv) {
				t.Errorf("subgraph %d should contain %d", sg.ID, gv)
			}
		}
		if sg.Contains(graph.VertexID(999)) {
			t.Errorf("Contains(999) should be false")
		}
	}
}

func TestSubgraphLocalEdgeWeightsMatchParent(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	for ge := graph.EdgeID(0); int(ge) < g.NumEdges(); ge++ {
		loc := p.Locate(ge)
		sg := p.Subgraph(loc.Subgraph)
		if got, want := sg.Local.Snapshot().Weight(loc.LocalEdge), g.Snapshot().Weight(ge); got != want {
			t.Errorf("edge %d weight in subgraph = %g, parent = %g", ge, got, want)
		}
		ends := g.EdgeEndpoints(ge)
		lEnds := sg.Local.EdgeEndpoints(loc.LocalEdge)
		if sg.ToGlobal(lEnds.U) != ends.U || sg.ToGlobal(lEnds.V) != ends.V {
			t.Errorf("edge %d endpoint mapping mismatch", ge)
		}
	}
}

func TestPartitionBuiltAfterWeightChangesUsesCurrentWeights(t *testing.T) {
	g := testutil.PaperGraph(t)
	// Change a weight before partitioning; the subgraph local weight must be
	// the current weight, while the local initial weight matches the parent's
	// initial weight (used for vfrags).
	e, _ := g.EdgeBetween(testutil.V1, testutil.V2)
	if err := g.ApplyUpdates([]graph.WeightUpdate{{Edge: e, NewWeight: 42}}); err != nil {
		t.Fatal(err)
	}
	p, err := PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	loc := p.Locate(e)
	sg := p.Subgraph(loc.Subgraph)
	if got := sg.Local.Snapshot().Weight(loc.LocalEdge); got != 42 {
		t.Errorf("local current weight = %g, want 42", got)
	}
	if got := sg.Local.InitialWeight(loc.LocalEdge); got != 3 {
		t.Errorf("local initial weight = %g, want 3", got)
	}
}

func TestApplyUpdatesPropagation(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := g.EdgeBetween(testutil.V4, testutil.V7)
	batch := []graph.WeightUpdate{{Edge: e, NewWeight: 99}}
	if err := g.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	perSub, err := p.ApplyUpdates(batch)
	if err != nil {
		t.Fatal(err)
	}
	loc := p.Locate(e)
	if len(perSub[loc.Subgraph]) != 1 {
		t.Errorf("expected one translated update for owning subgraph")
	}
	if got := p.Subgraph(loc.Subgraph).Local.Snapshot().Weight(loc.LocalEdge); got != 99 {
		t.Errorf("subgraph weight = %g, want 99", got)
	}
	// Invalid edge id must be rejected.
	if _, err := p.ApplyUpdates([]graph.WeightUpdate{{Edge: graph.EdgeID(g.NumEdges() + 5), NewWeight: 1}}); err == nil {
		t.Errorf("expected error for unknown edge")
	}
}

func TestCommonSubgraphs(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Each vertex lists exactly the subgraphs that contain it, ascending.
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		var want []SubgraphID
		for _, sg := range p.Subgraphs {
			if sg.Contains(v) {
				want = append(want, sg.ID)
			}
		}
		if got := p.SubgraphsOf(v); !slices.Equal(got, want) {
			t.Errorf("SubgraphsOf(%d) = %v, want %v", v, got, want)
		}
	}
	// Two endpoints of any edge must share at least one subgraph.
	for ge := graph.EdgeID(0); int(ge) < g.NumEdges(); ge++ {
		ends := g.EdgeEndpoints(ge)
		inV := p.SubgraphsOf(ends.V)
		if !slices.ContainsFunc(p.SubgraphsOf(ends.U), func(id SubgraphID) bool { return slices.Contains(inV, id) }) {
			t.Errorf("endpoints of edge %d share no subgraph", ge)
		}
	}
}

// TestSubgraphsOfUnknownVertex pins that a vertex id outside the partition's
// parent graph has no subgraphs rather than a panic: callers hold partitions
// of several epochs, and a vertex a topology batch added is unknown to the
// older ones.
func TestSubgraphsOfUnknownVertex(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	added := graph.VertexID(g.NumVertices())
	up := graph.TopologyUpdate{AddVertices: 1, InsertEdges: []graph.Edge{{U: 0, V: added, Weight: 1}}}
	ng, inserted, deleted, err := g.ApplyTopology(up)
	if err != nil {
		t.Fatal(err)
	}
	np, _, err := p.ApplyTopology(ng, up, inserted, deleted)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *Partition
		v    graph.VertexID
	}{
		{"old, -1", p, -1},
		{"old, NumVertices", p, graph.VertexID(g.NumVertices())},
		{"old, added vertex", p, added},
		{"new, -1", np, -1},
		{"new, NumVertices", np, graph.VertexID(ng.NumVertices())},
	} {
		if got := c.p.SubgraphsOf(c.v); got != nil {
			t.Errorf("%s: SubgraphsOf(%d) = %v, want nil", c.name, c.v, got)
		}
	}
	subs := np.SubgraphsOf(added)
	if len(subs) == 0 {
		t.Fatalf("the new partition has no subgraph for added vertex %d", added)
	}
	for _, id := range subs {
		if !np.Subgraph(id).Contains(added) {
			t.Errorf("SubgraphsOf(%d) names subgraph %d, which lacks it", added, id)
		}
	}
}

func TestPartitionStats(t *testing.T) {
	g := testutil.GridGraph(10, 10, 1)
	p, err := PartitionGraph(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	st := p.ComputeStats()
	if st.NumSubgraphs != p.NumSubgraphs() {
		t.Errorf("stats subgraph count mismatch")
	}
	if st.MaxSubgraphVertices > 12 {
		t.Errorf("max subgraph vertices %d exceeds z", st.MaxSubgraphVertices)
	}
	if st.NumBoundaryVertices != len(p.BoundaryVertices()) {
		t.Errorf("stats boundary count mismatch")
	}
	if st.AvgSubgraphVertices <= 0 {
		t.Errorf("average subgraph size should be positive")
	}
}

// Any path between vertices in different subgraphs must pass through a
// boundary vertex (the key structural property exploited by KSP-DG).
func TestPathsCrossSubgraphsViaBoundary(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := shortest.ShortestPath(g.Snapshot(), testutil.V1, testutil.V19, nil)
	if !ok {
		t.Fatal("no path")
	}
	crosses := false
	for _, v := range sp.Vertices {
		if p.IsBoundary(v) {
			crosses = true
			break
		}
	}
	if !crosses {
		t.Errorf("path between far-apart vertices should cross a boundary vertex")
	}
}

// Shortest distances inside a subgraph's local graph must equal distances in
// the parent graph restricted to the subgraph's edges.
func TestSubgraphShortestPathsConsistent(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range p.Subgraphs {
		if len(sg.Boundary) < 2 {
			continue
		}
		u, v := sg.Boundary[0], sg.Boundary[1]
		lu, _ := sg.ToLocal(u)
		lv, _ := sg.ToLocal(v)
		lp, ok := shortest.ShortestPath(sg.Local.Snapshot(), lu, lv, nil)
		if !ok {
			continue
		}
		gp := sg.GlobalPath(lp)
		if err := gp.Validate(g.Snapshot()); err != nil {
			t.Errorf("subgraph %d: global path invalid: %v", sg.ID, err)
		}
		if math.Abs(gp.EvalDist(g.Snapshot())-lp.Dist) > 1e-9 {
			t.Errorf("subgraph %d: local dist %g != parent dist %g", sg.ID, lp.Dist, gp.EvalDist(g.Snapshot()))
		}
	}
}

func TestLocalPathRoundTrip(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	sg := p.Subgraphs[0]
	global := graph.Path{Vertices: append([]graph.VertexID(nil), sg.Globals...)}
	local, ok := sg.LocalPath(global)
	if !ok {
		t.Fatal("LocalPath failed for subgraph's own vertices")
	}
	back := sg.GlobalPath(local)
	if !back.Equal(global) {
		t.Errorf("round trip mismatch: %v vs %v", back, global)
	}
	if _, ok := sg.LocalPath(graph.Path{Vertices: []graph.VertexID{9999}}); ok {
		t.Errorf("LocalPath should fail for foreign vertex")
	}
}

// Property: for random graphs and random z, the partition always validates
// and subgraph count decreases (weakly) as z increases.
func TestPropertyPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		g := testutil.RandomConnected(rng, n, n/2)
		z1 := 4 + rng.Intn(6)
		z2 := z1 + 5 + rng.Intn(10)
		p1, err := PartitionGraph(g, z1)
		if err != nil || p1.Validate() != nil {
			return false
		}
		p2, err := PartitionGraph(g, z2)
		if err != nil || p2.Validate() != nil {
			return false
		}
		return p2.NumSubgraphs() <= p1.NumSubgraphs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: partitioning is deterministic for a given graph and z.
func TestPropertyPartitionDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(30)
		g := testutil.RandomConnected(rng, n, n/3)
		z := 5 + rng.Intn(8)
		p1, err1 := PartitionGraph(g, z)
		p2, err2 := PartitionGraph(g, z)
		if err1 != nil || err2 != nil {
			return false
		}
		if p1.NumSubgraphs() != p2.NumSubgraphs() {
			return false
		}
		for i := range p1.Subgraphs {
			a, b := p1.Subgraphs[i], p2.Subgraphs[i]
			if len(a.Globals) != len(b.Globals) || len(a.GlobalEdges) != len(b.GlobalEdges) {
				return false
			}
			for j := range a.Globals {
				if a.Globals[j] != b.Globals[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPartitionGrowsRegions pins the region-growing rule: every subgraph is a
// connected breadth-first ball, seeded at the smallest-id vertex that still
// had an unassigned edge, so seeds never decrease and the first ball of a
// grid is the z vertices nearest its corner rather than a band across it.
func TestPartitionGrowsRegions(t *testing.T) {
	const w, z = 12, 16
	g := testutil.GridGraph(w, w, 1)
	p, err := PartitionGraph(g, z)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	prevSeed := graph.VertexID(-1)
	for _, sg := range p.Subgraphs {
		if seed := sg.Globals[0]; seed < prevSeed {
			t.Errorf("subgraph %d seeded at %d after a ball seeded at %d", sg.ID, seed, prevSeed)
		} else {
			prevSeed = seed
		}
		// Connected: a search over the local graph from the seed reaches
		// every vertex (the grid is undirected, so arcs run both ways).
		seen := map[graph.VertexID]bool{0: true}
		queue := []graph.VertexID{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, a := range sg.Local.Neighbors(u) {
				if !seen[a.To] {
					seen[a.To] = true
					queue = append(queue, a.To)
				}
			}
		}
		if len(seen) != sg.NumVertices() {
			t.Errorf("subgraph %d: %d of %d vertices reachable from its seed", sg.ID, len(seen), sg.NumVertices())
		}
	}
	first := p.Subgraph(0)
	if first.Globals[0] != 0 || first.NumVertices() != z {
		t.Fatalf("first ball seeded at %d with %d vertices, want 0 with %d", first.Globals[0], first.NumVertices(), z)
	}
	// The 21 grid vertices within Manhattan distance 5 of the corner hold
	// every 16-vertex breadth-first ball from it.
	for _, v := range first.Globals {
		if x, y := int(v)%w, int(v)/w; x+y > 5 {
			t.Errorf("first ball holds (%d,%d), %d steps from its seed", x, y, x+y)
		}
	}
}
