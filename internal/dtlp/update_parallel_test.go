package dtlp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/testutil"
)

// TestApplyUpdatesStatsTouchedCount asserts that the reported PathsTouched is
// the real EP-Index count for the batch's edges, not the batch size.
func TestApplyUpdatesStatsTouchedCount(t *testing.T) {
	g, _, x := buildPaperIndex(t, 2)
	var batch []graph.WeightUpdate
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		// Delta is always nonzero, so every EP-Index entry of every batch
		// edge is adjusted and PathsCrossing predicts the count exactly.
		batch = append(batch, graph.WeightUpdate{Edge: e, NewWeight: g.Snapshot().Weight(e) + 1})
	}
	want := x.PathsCrossing(batch)
	if want <= 0 {
		t.Fatalf("PathsCrossing = %d, want > 0", want)
	}
	st, err := x.ApplyUpdates(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.PathsTouched != want {
		t.Errorf("PathsTouched = %d, want EP-Index count %d", st.PathsTouched, want)
	}
	if st.PathsTouched == len(batch) {
		t.Errorf("PathsTouched equals batch size %d; the count must come from the EP-Index", len(batch))
	}
	if st.SubgraphsAffected <= 0 {
		t.Errorf("SubgraphsAffected = %d, want > 0", st.SubgraphsAffected)
	}
	if st.Epoch == 0 {
		t.Errorf("Epoch = 0, want the published epoch")
	}
}

// TestApplyUpdatesShardedMatchesSerial drives the same index through the
// same weight-update rounds and a closing topology batch twice — maintenance
// fanned out over one lane, then over eight — and requires identical
// UpdateStats, TopologyStats, LBDs and MBDs after every batch.
func TestApplyUpdatesShardedMatchesSerial(t *testing.T) {
	type outcome struct {
		updates []UpdateStats
		topo    TopologyStats
		bounds  [][]float64 // after every batch: each boundary pair's MBD, then its per-subgraph LBDs
	}
	run := func(t *testing.T, par int) (out outcome) {
		testutil.SetGOMAXPROCS(t, par)
		g := testutil.RandomConnected(rand.New(rand.NewSource(7)), 120, 80)
		p, err := partition.PartitionGraph(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		x, err := Build(p, Config{Xi: 2})
		if err != nil {
			t.Fatal(err)
		}
		record := func() {
			part := x.Partition()
			boundary := part.BoundaryVertices()
			var b []float64
			for i, u := range boundary {
				for _, v := range boundary[i+1:] {
					b = append(b, x.MBD(u, v))
					for _, id := range commonSubgraphs(part, u, v) {
						b = append(b, x.LBD(id, u, v))
					}
				}
			}
			out.bounds = append(out.bounds, b)
		}
		rng := rand.New(rand.NewSource(99))
		for round := 0; round < 4; round++ {
			st, err := x.ApplyUpdates(testutil.PerturbWeights(g, rng, 0.4, 0.6, 0.05))
			if err != nil {
				t.Fatal(err)
			}
			out.updates = append(out.updates, st)
			record()
		}
		n := graph.VertexID(g.NumVertices())
		out.topo, err = x.ApplyTopology(graph.TopologyUpdate{
			AddVertices: 1,
			InsertEdges: []graph.Edge{{U: 5, V: 90, Weight: 2.5}, {U: 33, V: 110, Weight: 1.5}, {U: n, V: 7, Weight: 3}},
			DeleteEdges: []graph.EdgeID{3, 77, 140},
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.topo.SubgraphsRebuilt < 2 {
			t.Fatalf("topology batch rebuilt %d subgraphs: the sharded rebuild was not exercised", out.topo.SubgraphsRebuilt)
		}
		record()
		return out
	}
	var serial outcome
	t.Run("par=1", func(t *testing.T) { serial = run(t, 1) })
	t.Run("par=8", func(t *testing.T) {
		sharded := run(t, 8)
		if !reflect.DeepEqual(sharded.updates, serial.updates) {
			t.Errorf("update stats diverge:\n serial  %+v\n sharded %+v", serial.updates, sharded.updates)
		}
		if !reflect.DeepEqual(sharded.topo, serial.topo) {
			t.Errorf("topology stats diverge:\n serial  %+v\n sharded %+v", serial.topo, sharded.topo)
		}
		for i := range serial.bounds {
			if !slices.Equal(sharded.bounds[i], serial.bounds[i]) {
				t.Errorf("LBDs/MBDs diverge after batch %d", i)
			}
		}
	})
}
