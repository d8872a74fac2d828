package serve

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/testutil"
)

// recordingPersister captures the durability callbacks of the writer path so
// tests can assert the exact interleaving of weight and topology records.
type recordingPersister struct {
	kinds     []string // "w" or "t", in append order
	epochs    []uint64
	snapshots int
	failBatch error
	failTopo  error
	failSnap  error
}

func (p *recordingPersister) AppendBatch(epoch uint64, batch []graph.WeightUpdate) error {
	if p.failBatch != nil {
		return p.failBatch
	}
	p.kinds = append(p.kinds, "w")
	p.epochs = append(p.epochs, epoch)
	return nil
}

func (p *recordingPersister) AppendTopology(epoch uint64, up graph.TopologyUpdate) error {
	if p.failTopo != nil {
		return p.failTopo
	}
	p.kinds = append(p.kinds, "t")
	p.epochs = append(p.epochs, epoch)
	return nil
}

func (p *recordingPersister) SaveSnapshot(index *dtlp.Index) (uint64, error) {
	if p.failSnap != nil {
		return 0, p.failSnap
	}
	p.snapshots++
	return index.CurrentView().Epoch(), nil
}

func TestServerApplyTopology(t *testing.T) {
	g := testutil.PaperGraph(t)
	_, s := buildServer(t, g, 6, 2, Options{Workers: 2})
	defer s.Close()

	pre, err := s.Query(testutil.V1, testutil.V19, 3)
	if err != nil || len(pre.Paths) == 0 {
		t.Fatalf("pre-topology query: %v (%d paths)", err, len(pre.Paths))
	}

	// Epoch 1: weight batch; epoch 2: topology batch.  Both kinds share the
	// epoch counter, so the topology stats must report epoch 2.
	if err := s.ApplyUpdates([]graph.WeightUpdate{{Edge: 0, NewWeight: 5}}); err != nil {
		t.Fatalf("weight batch: %v", err)
	}
	nv := graph.VertexID(g.NumVertices())
	st, err := s.ApplyTopologyStats(graph.TopologyUpdate{
		AddVertices: 1,
		InsertEdges: []graph.Edge{{U: testutil.V1, V: nv, Weight: 1}, {U: nv, V: testutil.V19, Weight: 1}},
	})
	if err != nil {
		t.Fatalf("topology batch: %v", err)
	}
	if st.Epoch != 2 {
		t.Fatalf("topology epoch = %d, want 2", st.Epoch)
	}
	if len(st.InsertedEdges) != 2 || st.SubgraphsRebuilt == 0 {
		t.Fatalf("unexpected topology stats: %+v", st)
	}

	// The server must answer against the post-topology parent: the two unit
	// edges through the fresh vertex form a strictly shorter v1->v19 path.
	post, err := s.Query(testutil.V1, testutil.V19, 3)
	if err != nil || len(post.Paths) == 0 {
		t.Fatalf("post-topology query: %v", err)
	}
	if post.Paths[0].Dist > 2+1e-9 {
		t.Fatalf("shortest v1->v19 after shortcut insert = %g, want 2", post.Paths[0].Dist)
	}
	if post.Epoch != 2 {
		t.Fatalf("post-topology query epoch = %d, want 2", post.Epoch)
	}

	stats := s.Stats()
	if stats.TopologyBatches != 1 || stats.SubgraphsRebuilt != int64(st.SubgraphsRebuilt) {
		t.Fatalf("server stats: %d topology batches, %d rebuilt; want 1, %d",
			stats.TopologyBatches, stats.SubgraphsRebuilt, st.SubgraphsRebuilt)
	}

	// An empty batch is a no-op that publishes nothing.
	st2, err := s.ApplyTopologyStats(graph.TopologyUpdate{})
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if st2.Epoch != 2 {
		t.Fatalf("empty batch reported epoch %d, want unchanged 2", st2.Epoch)
	}
	if got := s.Stats().TopologyBatches; got != 1 {
		t.Fatalf("empty batch counted as applied: %d batches", got)
	}

	// An invalid batch must not publish an epoch or bump counters.
	if err := s.ApplyTopology(graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{graph.EdgeID(g.NumEdges() + 10)}}); err == nil {
		t.Fatal("out-of-range delete must fail")
	}
	if got := s.Stats().Epoch; got != 2 {
		t.Fatalf("failed batch advanced the epoch to %d", got)
	}
}

func TestServerTopologyBroadcastAndWAL(t *testing.T) {
	g := testutil.PaperGraph(t)
	p := &recordingPersister{}
	var broadcasts []graph.TopologyUpdate
	_, s := buildServer(t, g, 6, 2, Options{
		Workers: 1,
		Store:   p,
		BroadcastTopology: func(up graph.TopologyUpdate) error {
			broadcasts = append(broadcasts, up)
			return nil
		},
	})
	defer s.Close()

	if err := s.ApplyUpdates([]graph.WeightUpdate{{Edge: 1, NewWeight: 4}}); err != nil {
		t.Fatal(err)
	}
	up := graph.TopologyUpdate{InsertEdges: []graph.Edge{{U: testutil.V2, V: testutil.V7, Weight: 3}}}
	if err := s.ApplyTopology(up); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates([]graph.WeightUpdate{{Edge: 2, NewWeight: 7}}); err != nil {
		t.Fatal(err)
	}

	wantKinds := []string{"w", "t", "w"}
	if strings.Join(p.kinds, "") != strings.Join(wantKinds, "") {
		t.Fatalf("WAL record kinds = %v, want %v", p.kinds, wantKinds)
	}
	for i, e := range p.epochs {
		if e != uint64(i+1) {
			t.Fatalf("WAL epochs = %v, want contiguous from 1", p.epochs)
		}
	}
	if len(broadcasts) != 1 || len(broadcasts[0].InsertEdges) != 1 {
		t.Fatalf("broadcast hook saw %d batches, want exactly the topology one", len(broadcasts))
	}

	// A WAL append failure must surface to the caller.
	p.failTopo = errors.New("disk full")
	err := s.ApplyTopology(graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{0}})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("WAL failure not surfaced: %v", err)
	}
}

// A batch is durable before it is visible: one the WAL refuses is neither
// applied nor acknowledged — the epoch, the weights and the published view
// stay as they were and no worker hears of it — and the next batch that logs
// publishes the epoch the refused one had reserved.  Batches the index would
// reject never reach the log.
func TestWALFailureLeavesBatchInvisible(t *testing.T) {
	g := testutil.PaperGraph(t)
	p := &recordingPersister{}
	broadcasts := 0
	x, s := buildServer(t, g, 6, 2, Options{
		Workers:           1,
		Store:             p,
		Broadcast:         func([]graph.WeightUpdate) error { broadcasts++; return nil },
		BroadcastTopology: func(graph.TopologyUpdate) error { broadcasts++; return nil },
	})
	defer s.Close()
	view := x.CurrentView()
	const edge = 1
	w0 := x.Partition().Parent().Weight(edge)
	loc := x.Partition().Locate(edge)
	localWeight := func() float64 { return x.Partition().Subgraph(loc.Subgraph).Local.Weight(loc.LocalEdge) }
	batch := []graph.WeightUpdate{{Edge: edge, NewWeight: w0 + 4}}
	topo := graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{0}}

	for _, bad := range [][]graph.WeightUpdate{
		{{Edge: graph.EdgeID(g.NumEdges()), NewWeight: 1}},
		{{Edge: edge, NewWeight: -1}},
		{{Edge: edge, NewWeight: math.NaN()}},
	} {
		if err := s.ApplyUpdates(bad); err == nil {
			t.Errorf("batch %v accepted", bad)
		}
	}
	if err := s.ApplyTopology(graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{graph.EdgeID(g.NumEdges())}}); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if len(p.kinds) != 0 {
		t.Fatalf("rejected batches reached the WAL: %v", p.kinds)
	}

	p.failBatch = errors.New("disk full")
	p.failTopo = errors.New("disk full")
	if _, err := s.ApplyUpdatesEpoch(batch); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("weight batch: WAL failure not surfaced: %v", err)
	}
	if _, err := s.ApplyTopologyStats(topo); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("topology batch: WAL failure not surfaced: %v", err)
	}
	if x.CurrentView() != view {
		t.Fatalf("a batch the WAL refused was published: epoch %d", x.CurrentView().Epoch())
	}
	if got := x.Partition().Parent().Weight(edge); got != w0 {
		t.Errorf("master weight = %g after a refused batch, want %g", got, w0)
	}
	if got := localWeight(); got != w0 {
		t.Errorf("index weight = %g after a refused batch, want %g", got, w0)
	}
	if !x.Partition().Parent().EdgeAlive(0) {
		t.Error("a refused topology batch deleted edge 0")
	}
	if broadcasts != 0 {
		t.Errorf("refused batches were broadcast %d times", broadcasts)
	}
	if st := s.Stats(); st.UpdateBatches != 0 || st.TopologyBatches != 0 || st.Epoch != view.Epoch() {
		t.Errorf("refused batches counted: %+v", st)
	}
	// Each refused append resynchronised the log with a snapshot.
	if p.snapshots != 2 {
		t.Errorf("%d resync snapshots after two refused appends, want 2", p.snapshots)
	}

	// While the resync snapshot fails too, the caller learns the batch may
	// come back after a restart, and every later write is refused before it
	// reaches the log.
	p.failSnap = errors.New("snapshot dir gone")
	if err := s.ApplyUpdates(batch); err == nil || !strings.Contains(err.Error(), "disk full") || !strings.Contains(err.Error(), "snapshot dir gone") {
		t.Fatalf("failed resync not surfaced: %v", err)
	}
	p.failBatch, p.failTopo = nil, nil
	if err := s.ApplyUpdates(batch); err == nil || !strings.Contains(err.Error(), "snapshot dir gone") {
		t.Fatalf("write with the log out of step: %v", err)
	}
	if err := s.ApplyTopology(topo); err == nil || !strings.Contains(err.Error(), "snapshot dir gone") {
		t.Fatalf("topology write with the log out of step: %v", err)
	}
	if len(p.kinds) != 0 || x.CurrentView() != view || broadcasts != 0 {
		t.Fatalf("writes went through with the log out of step: WAL %v, epoch %d, %d broadcasts", p.kinds, x.CurrentView().Epoch(), broadcasts)
	}
	p.failSnap = nil
	epoch, err := s.ApplyUpdatesEpoch(batch)
	if err != nil || epoch != view.Epoch()+1 {
		t.Fatalf("next weight batch: epoch %d err %v, want %d", epoch, err, view.Epoch()+1)
	}
	if got := localWeight(); got != w0+4 {
		t.Errorf("index weight = %g, want %g", got, w0+4)
	}
	st, err := s.ApplyTopologyStats(topo)
	if err != nil || st.Epoch != epoch+1 {
		t.Fatalf("next topology batch: epoch %d err %v, want %d", st.Epoch, err, epoch+1)
	}
	if want := []uint64{epoch, epoch + 1}; !slices.Equal(p.epochs, want) || broadcasts != 2 {
		t.Errorf("WAL epochs %v, broadcasts %d; want %v, 2", p.epochs, broadcasts, want)
	}
	if p.snapshots != 3 {
		t.Errorf("%d snapshots, want the resync that let the writes through as the third", p.snapshots)
	}
}
