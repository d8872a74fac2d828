package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"kspdg/internal/graph"
	"kspdg/internal/shortest"
)

const sampleDIMACS = `c sample graph
p sp 4 10
a 1 2 3
a 2 1 3
a 2 3 4
a 3 2 4
a 3 4 5
a 4 3 5
a 1 4 10
a 4 1 10
a 1 3 8
a 3 1 8
`

func TestLoadDIMACSUndirected(t *testing.T) {
	g, err := LoadDIMACS(strings.NewReader(sampleDIMACS), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.Directed() {
		t.Errorf("expected undirected graph")
	}
	if g.NumVertices() != 4 {
		t.Errorf("vertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Errorf("edges = %d, want 5 (mirrored arcs merged)", g.NumEdges())
	}
	if d := shortest.ShortestDistance(g.Snapshot(), 0, 3, nil); d != 10 {
		t.Errorf("shortest 1->4 = %g, want 10 (direct edge)", d)
	}
}

func TestLoadDIMACSDirected(t *testing.T) {
	g, err := LoadDIMACS(strings.NewReader(sampleDIMACS), false)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() {
		t.Errorf("expected directed graph")
	}
	if g.NumEdges() != 10 {
		t.Errorf("edges = %d, want 10", g.NumEdges())
	}
}

func TestLoadDIMACSErrors(t *testing.T) {
	cases := []string{
		"a 1 2 3\n",           // arc before problem line
		"p sp x 3\n",          // bad vertex count
		"p tw 4 3\n",          // wrong problem type
		"p sp 4 3\nq 1 2 3\n", // unknown record
		"p sp 4 3\na 1 2\n",   // malformed arc
		"",                    // empty
	}
	for _, c := range cases {
		if _, err := LoadDIMACS(strings.NewReader(c), true); err == nil {
			t.Errorf("expected error for input %q", c)
		}
	}
}

func TestWriteAndReloadDIMACS(t *testing.T) {
	ds, err := BuiltinDataset("NY", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, ds.Graph); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadDIMACS(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != ds.Graph.NumVertices() || g2.NumEdges() != ds.Graph.NumEdges() {
		t.Errorf("round trip size mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), ds.Graph.NumVertices(), ds.Graph.NumEdges())
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(RoadNetworkSpec{Width: 1, Height: 5}); err == nil {
		t.Errorf("degenerate grid should be rejected")
	}
}

func TestBuiltinDatasets(t *testing.T) {
	var prev int
	for _, name := range DatasetNames() {
		ds, err := BuiltinDataset(name, ScaleTiny)
		if err != nil {
			t.Fatalf("BuiltinDataset(%s): %v", name, err)
		}
		g := ds.Graph
		if g.NumVertices() <= prev {
			t.Errorf("%s should be larger than the previous dataset (%d vs %d)", name, g.NumVertices(), prev)
		}
		prev = g.NumVertices()
		if ds.DefaultZ < 2 {
			t.Errorf("%s default z = %d", name, ds.DefaultZ)
		}
		// Connectivity: every vertex reachable from vertex 0.
		tree := shortest.Dijkstra(g.Snapshot(), 0, nil)
		for v := 0; v < g.NumVertices(); v++ {
			if !tree.Reachable(graph.VertexID(v)) {
				t.Fatalf("%s: vertex %d unreachable; generator must produce connected graphs", name, v)
			}
		}
		// Sparsity sanity: average degree between 2 and 4 edges per vertex.
		avgDeg := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
		if avgDeg < 2 || avgDeg > 5 {
			t.Errorf("%s: average degree %g outside road-network range", name, avgDeg)
		}
	}
	if _, err := BuiltinDataset("MARS", ScaleTiny); err == nil {
		t.Errorf("unknown dataset should error")
	}
}

func TestBuiltinDatasetDeterministic(t *testing.T) {
	a, err := BuiltinDataset("COL", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuiltinDataset("COL", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumVertices() != b.Graph.NumVertices() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("generation not deterministic")
	}
	for e := graph.EdgeID(0); int(e) < a.Graph.NumEdges(); e++ {
		if a.Graph.Snapshot().Weight(e) != b.Graph.Snapshot().Weight(e) {
			t.Fatalf("weights differ at edge %d", e)
		}
	}
}

func TestGenerateDirected(t *testing.T) {
	ds, err := Generate(RoadNetworkSpec{Name: "D", Width: 6, Height: 6, Directed: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Graph.Directed() {
		t.Errorf("expected directed graph")
	}
	if ds.Graph.NumEdges()%2 != 0 {
		t.Errorf("directed generator should add arcs in pairs")
	}
}

func TestTrafficModelStep(t *testing.T) {
	ds, err := BuiltinDataset("NY", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	before := make([]float64, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		before[e] = g.Snapshot().Weight(graph.EdgeID(e))
	}
	tm := NewTrafficModel(0.35, 0.3, 7)
	batch := tm.Derive(g.NumEdges(), g.Directed(), g.Snapshot().Weight)
	if len(batch) == 0 {
		t.Fatal("expected some updates")
	}
	frac := float64(len(batch)) / float64(g.NumEdges())
	if frac < 0.2 || frac > 0.5 {
		t.Errorf("changed fraction %g too far from alpha=0.35", frac)
	}
	for _, u := range batch {
		if u.NewWeight <= 0 {
			t.Errorf("weight must stay positive")
		}
		old := before[u.Edge]
		if old > 0 {
			ratio := u.NewWeight / old
			if ratio < 1-0.3-1e-9 && u.NewWeight > tm.MinWeight+1e-12 {
				t.Errorf("edge %d changed by more than tau: ratio %g", u.Edge, ratio)
			}
			if ratio > 1+0.3+1e-9 {
				t.Errorf("edge %d changed by more than tau: ratio %g", u.Edge, ratio)
			}
		}
		if g.Snapshot().Weight(u.Edge) != before[u.Edge] {
			t.Errorf("deriving a batch changed the graph")
		}
	}
}

func TestTrafficModelMirrorsDirectedPairs(t *testing.T) {
	ds, err := Generate(RoadNetworkSpec{Name: "D", Width: 8, Height: 6, Directed: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	tm := NewTrafficModel(0.5, 0.4, 5)
	tm.MirrorDirected = true
	if err := g.ApplyUpdates(tm.Derive(g.NumEdges(), g.Directed(), g.Snapshot().Weight)); err != nil {
		t.Fatal(err)
	}
	for e := 0; e+1 < g.NumEdges(); e += 2 {
		if math.Abs(g.Snapshot().Weight(graph.EdgeID(e))-g.Snapshot().Weight(graph.EdgeID(e+1))) > 1e-12 {
			t.Fatalf("mirrored pair %d/%d weights differ", e, e+1)
		}
	}
}

func TestTrafficModelAlphaZero(t *testing.T) {
	ds, _ := BuiltinDataset("NY", ScaleTiny)
	tm := NewTrafficModel(0, 0.3, 1)
	if batch := tm.Derive(ds.Graph.NumEdges(), ds.Graph.Directed(), ds.Graph.Snapshot().Weight); batch != nil {
		t.Errorf("alpha=0 should produce no updates, got %v", batch)
	}
}

func TestQueryGenerator(t *testing.T) {
	qg := NewQueryGenerator(100, 13)
	qs := qg.Batch(50)
	if len(qs) != 50 {
		t.Fatalf("batch size = %d", len(qs))
	}
	for _, q := range qs {
		if q.Source == q.Target {
			t.Errorf("query endpoints must differ")
		}
		if int(q.Source) >= 100 || int(q.Target) >= 100 || q.Source < 0 || q.Target < 0 {
			t.Errorf("query endpoints out of range: %+v", q)
		}
	}
	// Determinism.
	again := NewQueryGenerator(100, 13).Batch(50)
	for i := range qs {
		if qs[i] != again[i] {
			t.Fatalf("query generation not deterministic")
		}
	}
}

// Property: traffic model never produces non-positive weights and names each
// edge at most once.  Each batch is applied to the shared graph, so weights
// compound across iterations and drift towards the MinWeight floor.
func TestPropertyTrafficModelSound(t *testing.T) {
	ds, err := BuiltinDataset("NY", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	f := func(seed int64, alphaRaw, tauRaw uint8) bool {
		alpha := float64(alphaRaw%100) / 100
		tau := float64(tauRaw%90) / 100
		tm := NewTrafficModel(alpha, tau, seed)
		batch := tm.Derive(g.NumEdges(), g.Directed(), g.Snapshot().Weight)
		seen := make(map[graph.EdgeID]bool)
		for _, u := range batch {
			if u.NewWeight <= 0 || seen[u.Edge] {
				return false
			}
			seen[u.Edge] = true
		}
		return g.ApplyUpdates(batch) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
