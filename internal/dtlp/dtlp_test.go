package dtlp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
)

func buildPaperIndex(t testing.TB, xi int) (*graph.Graph, *partition.Partition, *Index) {
	t.Helper()
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	x, err := Build(p, Config{Xi: xi})
	if err != nil {
		t.Fatalf("dtlp build: %v", err)
	}
	return g, p, x
}

func TestBuildRejectsBadConfig(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(p, Config{Xi: 0}); err == nil {
		t.Errorf("Xi=0 should be rejected")
	}
}

func TestBuildPaperGraph(t *testing.T) {
	_, p, x := buildPaperIndex(t, 2)
	st := x.Stats()
	if st.NumSubgraphs != p.NumSubgraphs() {
		t.Errorf("stats subgraphs = %d, want %d", st.NumSubgraphs, p.NumSubgraphs())
	}
	if st.NumBoundaryVertices != len(p.BoundaryVertices()) {
		t.Errorf("stats boundary = %d, want %d", st.NumBoundaryVertices, len(p.BoundaryVertices()))
	}
	if st.SkeletonVertices != len(p.BoundaryVertices()) {
		t.Errorf("skeleton vertices = %d, want %d", st.SkeletonVertices, len(p.BoundaryVertices()))
	}
	if st.NumBoundingPaths == 0 || st.EPIndexEntries == 0 || st.ApproxBytes == 0 {
		t.Errorf("expected non-trivial index stats, got %+v", st)
	}
	if x.Config().Xi != 2 {
		t.Errorf("config not preserved")
	}
}

// LBD must never exceed the true shortest distance between the pair inside
// the subgraph — the core soundness property the index provides.
func TestLBDIsLowerBoundWithinSubgraph(t *testing.T) {
	_, p, x := buildPaperIndex(t, 2)
	checkLowerBounds(t, p, x)
}

func checkLowerBounds(t *testing.T, p *partition.Partition, x *Index) {
	t.Helper()
	for _, sg := range p.Subgraphs {
		si := x.SubgraphIndex(sg.ID)
		for i := 0; i < len(sg.Boundary); i++ {
			for j := i + 1; j < len(sg.Boundary); j++ {
				a, b := sg.Boundary[i], sg.Boundary[j]
				la, _ := sg.ToLocal(a)
				lb, _ := sg.ToLocal(b)
				trueDist := shortest.ShortestDistance(sg.Local, la, lb, nil)
				lbd := si.LBDLocal(la, lb)
				if math.IsInf(trueDist, 1) {
					continue
				}
				if lbd > trueDist+1e-9 {
					t.Errorf("subgraph %d pair (%d,%d): LBD %g exceeds true distance %g",
						sg.ID, a, b, lbd, trueDist)
				}
				if lbd <= 0 {
					t.Errorf("subgraph %d pair (%d,%d): LBD %g should be positive", sg.ID, a, b, lbd)
				}
			}
		}
	}
}

// At construction time all unit weights equal 1, so every bounding path's
// bound distance equals its vfrag count bounded by the subgraph's total, and
// the LBD equals the true shortest distance within the subgraph (Section 5.5:
// "at the very beginning ... the lower bound distance of any two boundary
// vertices equals their shortest distance within every subgraph").
func TestInitialLBDEqualsSubgraphShortestDistance(t *testing.T) {
	_, p, x := buildPaperIndex(t, 3)
	for _, sg := range p.Subgraphs {
		si := x.SubgraphIndex(sg.ID)
		for i := 0; i < len(sg.Boundary); i++ {
			for j := i + 1; j < len(sg.Boundary); j++ {
				la, _ := sg.ToLocal(sg.Boundary[i])
				lb, _ := sg.ToLocal(sg.Boundary[j])
				trueDist := shortest.ShortestDistance(sg.Local, la, lb, nil)
				if math.IsInf(trueDist, 1) {
					continue
				}
				lbd := si.LBDLocal(la, lb)
				if math.Abs(lbd-trueDist) > 1e-9 {
					t.Errorf("subgraph %d pair (%d,%d): initial LBD %g != shortest %g",
						sg.ID, sg.Boundary[i], sg.Boundary[j], lbd, trueDist)
				}
			}
		}
	}
}

func TestMBDIsMinOverSubgraphs(t *testing.T) {
	_, p, x := buildPaperIndex(t, 2)
	boundary := p.BoundaryVertices()
	for i := 0; i < len(boundary); i++ {
		for j := i + 1; j < len(boundary); j++ {
			a, b := boundary[i], boundary[j]
			want := math.Inf(1)
			for _, id := range p.CommonSubgraphs(a, b) {
				if d := x.LBD(id, a, b); d < want {
					want = d
				}
			}
			got := x.MBD(a, b)
			if math.IsInf(want, 1) {
				if !math.IsInf(got, 1) {
					t.Errorf("MBD(%d,%d) = %g, want +Inf", a, b, got)
				}
				continue
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("MBD(%d,%d) = %g, want %g", a, b, got, want)
			}
		}
	}
}

func TestSkeletonStructure(t *testing.T) {
	_, p, x := buildPaperIndex(t, 2)
	skel := x.Skeleton()
	if skel.NumVertices() != len(p.BoundaryVertices()) {
		t.Fatalf("skeleton has %d vertices, want %d", skel.NumVertices(), len(p.BoundaryVertices()))
	}
	// Every skeleton vertex maps back and forth consistently.
	for _, v := range p.BoundaryVertices() {
		id, ok := skel.SkelID(v)
		if !ok {
			t.Errorf("boundary vertex %d missing from skeleton", v)
			continue
		}
		if skel.GlobalID(id) != v {
			t.Errorf("skeleton id round trip failed for %d", v)
		}
	}
	// Skeleton edges carry the MBD weights.
	for e := graph.EdgeID(0); int(e) < skel.Graph().NumEdges(); e++ {
		ends := skel.Graph().EdgeEndpoints(e)
		a, b := skel.GlobalID(ends.U), skel.GlobalID(ends.V)
		if math.Abs(skel.Graph().Weight(e)-x.MBD(a, b)) > 1e-9 {
			t.Errorf("skeleton edge (%d,%d) weight %g != MBD %g", a, b, skel.Graph().Weight(e), x.MBD(a, b))
		}
		if math.Abs(skel.Weight(a, b)-x.MBD(a, b)) > 1e-9 {
			t.Errorf("Skeleton.Weight(%d,%d) mismatch", a, b)
		}
	}
	if !math.IsInf(skel.Weight(0, 1), 1) {
		// vertices 0 and 1 are non-boundary in the paper graph partitioning
		t.Logf("note: weight(0,1) = %g", skel.Weight(0, 1))
	}
}

// Skeleton path distances must lower-bound true distances in G between
// boundary vertices (Theorem 2) — this is what guarantees KSP-DG correctness.
func TestSkeletonDistanceLowerBoundsTrueDistance(t *testing.T) {
	g, p, x := buildPaperIndex(t, 2)
	skel := x.Skeleton()
	boundary := p.BoundaryVertices()
	for i := 0; i < len(boundary); i++ {
		for j := i + 1; j < len(boundary); j++ {
			a, b := boundary[i], boundary[j]
			sa, _ := skel.SkelID(a)
			sb, _ := skel.SkelID(b)
			skelDist := shortest.ShortestDistance(skel.Graph(), sa, sb, nil)
			trueDist := shortest.ShortestDistance(g, a, b, nil)
			if math.IsInf(trueDist, 1) {
				continue
			}
			if skelDist > trueDist+1e-9 {
				t.Errorf("skeleton distance %g exceeds true distance %g for (%d,%d)", skelDist, trueDist, a, b)
			}
		}
	}
}

func TestApplyUpdatesMaintainsInvariants(t *testing.T) {
	g, p, x := buildPaperIndex(t, 2)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		// Perturb ~40% of edges by up to ±50%.
		var batch []graph.WeightUpdate
		for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
			if rng.Float64() < 0.4 {
				factor := 1 + (rng.Float64()*2-1)*0.5
				w := g.Weight(e) * factor
				if w < 0.1 {
					w = 0.1
				}
				batch = append(batch, graph.WeightUpdate{Edge: e, NewWeight: w})
			}
		}
		if err := g.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		if err := x.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		// Subgraph local weights must mirror the parent graph.
		for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
			loc := p.Locate(e)
			if got, want := p.Subgraph(loc.Subgraph).Local.Weight(loc.LocalEdge), g.Weight(e); math.Abs(got-want) > 1e-12 {
				t.Fatalf("round %d: subgraph weight %g != parent %g", round, got, want)
			}
		}
		// LBDs remain valid lower bounds.
		checkLowerBounds(t, p, x)
		// Skeleton edge weights remain in sync with MBDs.
		skel := x.Skeleton()
		for e := graph.EdgeID(0); int(e) < skel.Graph().NumEdges(); e++ {
			ends := skel.Graph().EdgeEndpoints(e)
			a, b := skel.GlobalID(ends.U), skel.GlobalID(ends.V)
			if math.Abs(skel.Graph().Weight(e)-x.MBD(a, b)) > 1e-9 {
				t.Fatalf("round %d: skeleton edge (%d,%d) weight %g != MBD %g",
					round, a, b, skel.Graph().Weight(e), x.MBD(a, b))
			}
		}
	}
}

func TestApplyUpdatesBoundingPathDistances(t *testing.T) {
	g, p, x := buildPaperIndex(t, 2)
	// Pick an edge covered by at least one bounding path.
	var target graph.EdgeID = graph.NoEdge
	var si *SubgraphIndex
	var loc partition.EdgeLocation
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		l := p.Locate(e)
		s := x.SubgraphIndex(l.Subgraph)
		if len(s.PathsThroughEdge(l.LocalEdge)) > 0 {
			target, si, loc = e, s, l
			break
		}
	}
	if target == graph.NoEdge {
		t.Fatal("no edge covered by a bounding path")
	}
	before := make(map[int]float64)
	for _, bp := range si.PathsThroughEdge(loc.LocalEdge) {
		before[bp.ID] = bp.Dist
	}
	old := g.Weight(target)
	batch := []graph.WeightUpdate{{Edge: target, NewWeight: old + 5}}
	if err := g.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	if err := x.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	for _, bp := range si.PathsThroughEdge(loc.LocalEdge) {
		if math.Abs(bp.Dist-(before[bp.ID]+5)) > 1e-9 {
			t.Errorf("bounding path %d distance = %g, want %g", bp.ID, bp.Dist, before[bp.ID]+5)
		}
	}
	// Bounding path distances must equal re-evaluating the path on the
	// subgraph's current weights.
	sub := si.Subgraph()
	for e := graph.EdgeID(0); int(e) < sub.Local.NumEdges(); e++ {
		for _, bp := range si.PathsThroughEdge(e) {
			want := 0.0
			for _, e := range bp.Edges {
				want += sub.Local.Weight(e)
			}
			if math.Abs(bp.Dist-want) > 1e-9 {
				t.Errorf("path %d incremental dist %g != recomputed %g", bp.ID, bp.Dist, want)
			}
		}
	}
}

func TestApplyUpdatesUnknownEdge(t *testing.T) {
	g, _, x := buildPaperIndex(t, 1)
	bad := []graph.WeightUpdate{{Edge: graph.EdgeID(g.NumEdges() + 10), NewWeight: 1}}
	if err := x.ApplyUpdates(bad); err == nil {
		t.Errorf("expected error for unknown edge")
	}
	if err := x.ApplyUpdates(nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
}

func TestBoundaryLowerBounds(t *testing.T) {
	g, p, x := buildPaperIndex(t, 2)
	// v1 is an interior (non-boundary) vertex in the paper partitioning.
	v := testutil.V1
	if p.IsBoundary(v) {
		t.Skipf("vertex %d unexpectedly boundary; partitioning changed", v)
	}
	bounds := x.BoundaryLowerBounds(v)
	if len(bounds) == 0 {
		t.Fatal("expected lower bounds to boundary vertices")
	}
	for bv, d := range bounds {
		if !p.IsBoundary(bv) {
			t.Errorf("bound reported for non-boundary vertex %d", bv)
		}
		trueDist := shortest.ShortestDistance(g, v, bv, nil)
		if d < trueDist-1e-9 {
			// The within-subgraph distance can exceed the global distance but
			// never undercut it ... actually it must be >= global distance.
			t.Errorf("within-subgraph distance %g below global distance %g for (%d,%d)", d, trueDist, v, bv)
		}
	}
	// A boundary vertex gets distance 0 to itself.
	bv := p.BoundaryVertices()[0]
	selfBounds := x.BoundaryLowerBounds(bv)
	if d, ok := selfBounds[bv]; !ok || d != 0 {
		t.Errorf("self distance = %v,%v; want 0,true", d, ok)
	}
}

func TestVfragBoundDistanceExample(t *testing.T) {
	// Reproduce the mechanics of Example 4: a subgraph whose weights change
	// keeps vfrag counts fixed while unit weights shrink, producing a tighter
	// bound distance than edge-count-based bounds.
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(p, Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Find a subgraph and boundary pair with indexed bounding paths; prefer
	// the (V13, V14) pair of the paper example when the partitioner
	// co-locates it, otherwise fall back to the first indexed pair.
	var si *SubgraphIndex
	var la, lb graph.VertexID
	var paths []BoundingPath
	for _, id := range p.CommonSubgraphs(testutil.V13, testutil.V14) {
		cand := x.SubgraphIndex(id)
		a, _ := cand.Subgraph().ToLocal(testutil.V13)
		b, _ := cand.Subgraph().ToLocal(testutil.V14)
		if ps := cand.BoundingPaths(a, b); len(ps) > 0 {
			si, la, lb, paths = cand, a, b, ps
			break
		}
	}
	if si == nil {
	outer:
		for _, sg := range p.Subgraphs {
			cand := x.SubgraphIndex(sg.ID)
			for i := 0; i < len(sg.Boundary); i++ {
				for j := i + 1; j < len(sg.Boundary); j++ {
					a, _ := sg.ToLocal(sg.Boundary[i])
					b, _ := sg.ToLocal(sg.Boundary[j])
					if ps := cand.BoundingPaths(a, b); len(ps) > 0 {
						si, la, lb, paths = cand, a, b, ps
						break outer
					}
				}
			}
		}
	}
	if si == nil {
		t.Fatal("no bounding paths indexed anywhere")
	}
	for _, bp := range paths {
		if bp.Vfrags <= 0 {
			t.Errorf("vfrag count must be positive")
		}
		if bp.Bound > bp.Dist+1e-9 {
			t.Errorf("bound distance %g exceeds actual distance %g", bp.Bound, bp.Dist)
		}
	}
	// Shrink all weights in that subgraph; bounds must stay below distances.
	var batch []graph.WeightUpdate
	for _, ge := range si.Subgraph().GlobalEdges {
		batch = append(batch, graph.WeightUpdate{Edge: ge, NewWeight: g.Weight(ge) / 3})
	}
	if err := g.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	if err := x.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	for _, bp := range si.BoundingPaths(la, lb) {
		if bp.Bound > bp.Dist+1e-9 {
			t.Errorf("after update: bound %g exceeds distance %g", bp.Bound, bp.Dist)
		}
	}
}

func TestPathSetsExposeEPIndex(t *testing.T) {
	_, p, x := buildPaperIndex(t, 2)
	for _, sg := range p.Subgraphs {
		si := x.SubgraphIndex(sg.ID)
		sets := si.PathSets()
		total := 0
		for e, ids := range sets {
			if len(ids) == 0 {
				t.Errorf("edge %d has empty path set", e)
			}
			total += len(ids)
		}
		if total != si.EPIndexEntries() {
			t.Errorf("PathSets total %d != EPIndexEntries %d", total, si.EPIndexEntries())
		}
	}
}

func TestDirectedGraphIndex(t *testing.T) {
	// A directed ring with a chord: ensure directed pairs are indexed in both
	// directions and LBDs respect direction.
	b := graph.NewBuilder(8, true)
	for i := 0; i < 8; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%8), 1+float64(i%3))
	}
	b.AddEdge(0, 4, 2)
	g := b.Build()
	p, err := partition.PartitionGraph(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(p, Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !x.Skeleton().Directed() {
		t.Errorf("skeleton of a directed graph must be directed")
	}
	for _, sg := range p.Subgraphs {
		si := x.SubgraphIndex(sg.ID)
		for i := 0; i < len(sg.Boundary); i++ {
			for j := 0; j < len(sg.Boundary); j++ {
				if i == j {
					continue
				}
				la, _ := sg.ToLocal(sg.Boundary[i])
				lb, _ := sg.ToLocal(sg.Boundary[j])
				trueDist := shortest.ShortestDistance(sg.Local, la, lb, nil)
				lbd := si.LBDLocal(la, lb)
				if math.IsInf(trueDist, 1) {
					continue
				}
				if lbd > trueDist+1e-9 {
					t.Errorf("directed LBD %g exceeds true %g for (%d,%d)", lbd, trueDist, sg.Boundary[i], sg.Boundary[j])
				}
			}
		}
	}
}

// Property: on random graphs with random perturbations, LBDs always remain
// lower bounds of within-subgraph shortest distances and skeleton weights
// track MBDs.
func TestPropertyMaintenanceSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 24 + rng.Intn(40)
		g := testutil.RandomConnected(rng, n, n/2)
		p, err := partition.PartitionGraph(g, 6+rng.Intn(6))
		if err != nil {
			return false
		}
		x, err := Build(p, Config{Xi: 1 + rng.Intn(3)})
		if err != nil {
			return false
		}
		for round := 0; round < 3; round++ {
			batch := testutil.PerturbWeights(t, g, rng, 0.5, 0.6, 0.05)
			if err := x.ApplyUpdates(batch); err != nil {
				return false
			}
		}
		for _, sg := range p.Subgraphs {
			si := x.SubgraphIndex(sg.ID)
			for i := 0; i < len(sg.Boundary); i++ {
				for j := i + 1; j < len(sg.Boundary); j++ {
					la, _ := sg.ToLocal(sg.Boundary[i])
					lb, _ := sg.ToLocal(sg.Boundary[j])
					trueDist := shortest.ShortestDistance(sg.Local, la, lb, nil)
					if math.IsInf(trueDist, 1) {
						continue
					}
					if si.LBDLocal(la, lb) > trueDist+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
