package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/serve"
	"kspdg/internal/testutil"
	"kspdg/internal/workload"
)

// The store must plug into the serve layer's durability hook.
var _ serve.Persister = (*Store)(nil)

// buildIndex constructs a deterministic random graph, partition, and index.
// Calling it twice with the same seed yields two independent but identical
// instances (the never-crashed reference and the crash/recover subject).
func buildIndex(tb testing.TB, seed int64, n, z, xi int) (*graph.Graph, *dtlp.Index) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := testutil.RandomConnected(rng, n, n/3)
	part, err := partition.PartitionGraph(g, z)
	if err != nil {
		tb.Fatalf("partition: %v", err)
	}
	x, err := dtlp.Build(part, dtlp.Config{Xi: xi})
	if err != nil {
		tb.Fatalf("dtlp build: %v", err)
	}
	return g, x
}

// exportRecords drains an index's path record stream into a flat slice.
type taggedRecord struct {
	Sub partition.SubgraphID
	Rec dtlp.PathRecord
}

func exportRecords(tb testing.TB, x *dtlp.Index) []taggedRecord {
	tb.Helper()
	var out []taggedRecord
	err := x.ExportState(func(st dtlp.ExportedState) error {
		return st.Paths(func(sub partition.SubgraphID, rec dtlp.PathRecord) error {
			out = append(out, taggedRecord{Sub: sub, Rec: dtlp.PathRecord{
				Pair:     rec.Pair,
				Vertices: append([]graph.VertexID(nil), rec.Vertices...),
				Edges:    append([]graph.EdgeID(nil), rec.Edges...),
				Vfrags:   rec.Vfrags,
				Dist:     rec.Dist,
			}})
			return nil
		})
	})
	if err != nil {
		tb.Fatalf("export: %v", err)
	}
	return out
}

// requireIdenticalIndexes asserts two indexes are bit-identical: same epoch,
// same global and skeleton weights, and the same bounding path state down to
// the float bits.
func requireIdenticalIndexes(tb testing.TB, want, got *dtlp.Index) {
	tb.Helper()
	requireIdenticalViews(tb, want.CurrentView(), got.CurrentView())
	wr, gr := exportRecords(tb, want), exportRecords(tb, got)
	if len(wr) != len(gr) {
		tb.Fatalf("path record count mismatch: want %d, got %d", len(wr), len(gr))
	}
	for i := range wr {
		a, b := wr[i], gr[i]
		if a.Sub != b.Sub || a.Rec.Pair != b.Rec.Pair ||
			math.Float64bits(a.Rec.Vfrags) != math.Float64bits(b.Rec.Vfrags) ||
			math.Float64bits(a.Rec.Dist) != math.Float64bits(b.Rec.Dist) {
			tb.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
		if len(a.Rec.Vertices) != len(b.Rec.Vertices) {
			tb.Fatalf("record %d vertex count differs", i)
		}
		for j := range a.Rec.Vertices {
			if a.Rec.Vertices[j] != b.Rec.Vertices[j] {
				tb.Fatalf("record %d vertex %d differs", i, j)
			}
		}
		for j := range a.Rec.Edges {
			if a.Rec.Edges[j] != b.Rec.Edges[j] {
				tb.Fatalf("record %d edge %d differs", i, j)
			}
		}
	}
}

// requireIdenticalViews asserts two epoch views are bit-identical: same
// epoch, global weights and skeleton weights.
func requireIdenticalViews(tb testing.TB, wv, gv *dtlp.IndexView) {
	tb.Helper()
	if wv.Epoch() != gv.Epoch() {
		tb.Fatalf("epoch mismatch: want %d, got %d", wv.Epoch(), gv.Epoch())
	}
	numE := wv.Partition().Parent().NumEdges()
	if gotE := gv.Partition().Parent().NumEdges(); gotE != numE {
		tb.Fatalf("epoch %d: edge count mismatch: want %d, got %d", wv.Epoch(), numE, gotE)
	}
	for e := 0; e < numE; e++ {
		ww := math.Float64bits(wv.GlobalWeight(graph.EdgeID(e)))
		gw := math.Float64bits(gv.GlobalWeight(graph.EdgeID(e)))
		if ww != gw {
			tb.Fatalf("epoch %d: edge %d weight bits differ: %016x vs %016x", wv.Epoch(), e, ww, gw)
		}
	}
	ws, gs := wv.SkeletonWeights(), gv.SkeletonWeights()
	if ws.NumEdges() != gs.NumEdges() {
		tb.Fatalf("epoch %d: skeleton edge count mismatch: want %d, got %d", wv.Epoch(), ws.NumEdges(), gs.NumEdges())
	}
	for e := 0; e < ws.NumEdges(); e++ {
		ww, gw := math.Float64bits(ws.Weight(graph.EdgeID(e))), math.Float64bits(gs.Weight(graph.EdgeID(e)))
		if ww != gw {
			tb.Fatalf("epoch %d: skeleton edge %d weight bits differ: %016x vs %016x", wv.Epoch(), e, ww, gw)
		}
	}
}

// requireIdenticalAnswers runs the same queries through both indexes and
// asserts byte-identical results: same epoch, same paths, same distances.
// Both engines share an iteration cap so the occasional slow-converging
// random query stays bounded; equivalence still holds because both sides are
// truncated identically (a state divergence would still surface).
func requireIdenticalAnswers(tb testing.TB, want, got *dtlp.Index, n int, seed int64, k int) {
	tb.Helper()
	opts := core.Options{MaxIterations: 50}
	we := core.NewEngine(want, nil, opts)
	ge := core.NewEngine(got, nil, opts)
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < 12; q++ {
		s := graph.VertexID(rng.Intn(n))
		t := graph.VertexID(rng.Intn(n))
		if s == t {
			continue
		}
		wres, err := we.QueryViewCtx(context.Background(), nil, s, t, k)
		if err != nil {
			tb.Fatalf("reference query(%d,%d): %v", s, t, err)
		}
		gres, err := ge.QueryViewCtx(context.Background(), nil, s, t, k)
		if err != nil {
			tb.Fatalf("recovered query(%d,%d): %v", s, t, err)
		}
		if wres.Epoch != gres.Epoch {
			tb.Fatalf("query(%d,%d): epoch %d vs %d", s, t, wres.Epoch, gres.Epoch)
		}
		if len(wres.Paths) != len(gres.Paths) {
			tb.Fatalf("query(%d,%d): %d paths vs %d", s, t, len(wres.Paths), len(gres.Paths))
		}
		for i := range wres.Paths {
			wp, gp := wres.Paths[i], gres.Paths[i]
			if math.Float64bits(wp.Dist) != math.Float64bits(gp.Dist) {
				tb.Fatalf("query(%d,%d) path %d: dist bits %016x vs %016x",
					s, t, i, math.Float64bits(wp.Dist), math.Float64bits(gp.Dist))
			}
			if len(wp.Vertices) != len(gp.Vertices) {
				tb.Fatalf("query(%d,%d) path %d: lengths differ", s, t, i)
			}
			for j := range wp.Vertices {
				if wp.Vertices[j] != gp.Vertices[j] {
					tb.Fatalf("query(%d,%d) path %d vertex %d differs", s, t, i, j)
				}
			}
		}
	}
}

// TestSnapshotRoundTrip saves a freshly built index and recovers it: the
// recovered index must be bit-identical at epoch 0 without any subgraph
// construction work.
func TestSnapshotRoundTrip(t *testing.T) {
	const seed, n, z, xi = 11, 34, 8, 2
	_, x := buildIndex(t, seed, n, z, xi)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := st.SaveSnapshot(x)
	if err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if epoch != 0 {
		t.Fatalf("snapshot epoch = %d, want 0", epoch)
	}
	builds := dtlp.SubgraphBuildCount()
	rec, err := st.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := dtlp.SubgraphBuildCount(); got != builds {
		t.Fatalf("recovery rebuilt %d subgraph indexes; warm start must not enumerate bounding paths", got-builds)
	}
	if rec.Epoch != 0 || rec.SnapshotEpoch != 0 || rec.ReplayedBatches != 0 {
		t.Fatalf("unexpected recovery summary: %+v", rec)
	}
	requireIdenticalIndexes(t, x, rec.Index)
	requireIdenticalAnswers(t, x, rec.Index, n, seed+1, 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverEquivalence is the kill-and-recover differential test of the
// acceptance criteria: a server running with the store (snapshot landing
// mid-stream, WAL tail) is crashed and recovered, and the recovered state
// must be indistinguishable — epoch counter, index weights, bounding path
// distances, and k-shortest-path answers — from a server that applied the
// same batches without ever crashing.
func TestRecoverEquivalence(t *testing.T) {
	const seed, n, z, xi, k = 42, 36, 8, 2, 3
	gA, xA := buildIndex(t, seed, n, z, xi)
	_, xB := buildIndex(t, seed, n, z, xi)

	dir := t.TempDir()
	st, err := Open(dir, Options{SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}

	srvA := serve.New(xA, nil, serve.Options{Workers: 2})
	defer srvA.Close()
	// Snapshot every 4 batches: after 6 batches the store holds a snapshot
	// at epoch 4 plus WAL records for epochs 5 and 6.
	srvB := serve.New(xB, nil, serve.Options{Workers: 2, Store: st, SnapshotEvery: 4})

	const batches = 6
	sc := workload.GenerateMixed(gA, 0, batches, k, 0.4, 0.5, seed+7)
	applied := 0
	for _, ev := range sc.Events {
		if len(ev.Updates) == 0 {
			continue
		}
		if _, err := srvA.ApplyUpdates(context.Background(), ev.Updates); err != nil {
			t.Fatalf("reference ApplyUpdates: %v", err)
		}
		if _, err := srvB.ApplyUpdates(context.Background(), ev.Updates); err != nil {
			t.Fatalf("stored ApplyUpdates: %v", err)
		}
		applied++
	}
	if applied != batches {
		t.Fatalf("generated %d batches, want %d", applied, batches)
	}
	if st := srvB.Stats(); st.Snapshots != 1 {
		t.Fatalf("expected 1 periodic snapshot, got %d", st.Snapshots)
	}

	// Crash: abandon srvB and its index, close the store abruptly.
	srvB.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	builds := dtlp.SubgraphBuildCount()
	rec, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := dtlp.SubgraphBuildCount(); got != builds {
		t.Fatalf("recovery rebuilt %d subgraph indexes", got-builds)
	}
	if rec.SnapshotEpoch != 4 || rec.Epoch != batches || rec.ReplayedBatches != 2 {
		t.Fatalf("recovery summary: snapshot %d, epoch %d, replayed %d; want 4, %d, 2",
			rec.SnapshotEpoch, rec.Epoch, rec.ReplayedBatches, batches)
	}
	requireIdenticalIndexes(t, xA, rec.Index)
	requireIdenticalAnswers(t, xA, rec.Index, n, seed+100, k)

	// Warm-started server continues the epoch sequence and keeps logging:
	// one more batch must land as epoch 7 on both sides and stay identical.
	srvC := serve.New(rec.Index, nil, serve.Options{Workers: 2, Store: st2})
	defer srvC.Close()
	sc2 := workload.GenerateMixed(gA, 0, 1, k, 0.4, 0.5, seed+8)
	for _, ev := range sc2.Events {
		if len(ev.Updates) == 0 {
			continue
		}
		if _, err := srvA.ApplyUpdates(context.Background(), ev.Updates); err != nil {
			t.Fatal(err)
		}
		if _, err := srvC.ApplyUpdates(context.Background(), ev.Updates); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Index.CurrentView().Epoch(); got != batches+1 {
		t.Fatalf("warm-started epoch = %d, want %d", got, batches+1)
	}
	requireIdenticalIndexes(t, xA, rec.Index)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverTopology recovers graph+partition only (the worker warm-start
// path) and checks the replayed weights match a full recovery.
func TestRecoverTopology(t *testing.T) {
	const seed, n, z, xi = 17, 30, 7, 2
	g, x := buildIndex(t, seed, n, z, xi)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveSnapshot(x); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(x, nil, serve.Options{Workers: 1, Store: st})
	sc := workload.GenerateMixed(g, 0, 3, 2, 0.4, 0.5, seed)
	for _, ev := range sc.Events {
		if len(ev.Updates) > 0 {
			if _, err := srv.ApplyUpdates(context.Background(), ev.Updates); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Close()
	st.Close()

	rg, rp, epoch, err := RecoverTopology(dir)
	if err != nil {
		t.Fatalf("RecoverTopology: %v", err)
	}
	if epoch != 3 {
		t.Fatalf("topology recovery epoch = %d, want 3", epoch)
	}
	requireRecoveredTopology(t, x, rg, rp)

	// The long log: two runs of weight records around a topology record,
	// each replayed as one graph and one partition write.
	dir, x, _ = writeLongLog(t)
	rg, rp, epoch, err = RecoverTopology(dir)
	if err != nil {
		t.Fatalf("RecoverTopology of the long log: %v", err)
	}
	if epoch != longLogRecords {
		t.Fatalf("topology recovery of the long log reached epoch %d, want %d", epoch, longLogRecords)
	}
	requireRecoveredTopology(t, x, rg, rp)
}

// requireRecoveredTopology asserts that a recovery without an index holds
// the live index's graph: the same edges alive with the same weight bits,
// the same subgraph count, and subgraph-local weights that track the graph.
func requireRecoveredTopology(tb testing.TB, live *dtlp.Index, rg *graph.Graph, rp *partition.Partition) {
	tb.Helper()
	g := live.Partition().Parent()
	if rg.NumEdges() != g.NumEdges() || rp.NumSubgraphs() != live.Partition().NumSubgraphs() {
		tb.Fatalf("recovered %d edges in %d subgraphs, want %d in %d", rg.NumEdges(), rp.NumSubgraphs(), g.NumEdges(), live.Partition().NumSubgraphs())
	}
	for e := range graph.EdgeID(g.NumEdges()) {
		if rg.EdgeAlive(e) != g.EdgeAlive(e) {
			tb.Fatalf("edge %d: alive %v after topology recovery, want %v", e, rg.EdgeAlive(e), g.EdgeAlive(e))
		}
		if math.Float64bits(g.Snapshot().Weight(e)) != math.Float64bits(rg.Snapshot().Weight(e)) {
			tb.Fatalf("edge %d weight differs after topology recovery", e)
		}
	}
	for i := 0; i < rp.NumSubgraphs(); i++ {
		sg := rp.Subgraph(partition.SubgraphID(i))
		for le, ge := range sg.GlobalEdges {
			if math.Float64bits(sg.Local.Snapshot().Weight(graph.EdgeID(le))) != math.Float64bits(g.Snapshot().Weight(ge)) {
				tb.Fatalf("subgraph %d local edge %d weight differs", i, le)
			}
		}
	}
}

// longLogRecords is the length of writeLongLog's log, and longLogTopology
// the epoch of its one topology record.  Both runs of weight records around
// it are longer than the window of views an index retains.
const longLogRecords, longLogTopology = 150, 71

// writeLongLog builds an index, snapshots it at epoch 0 into a new data
// directory, then logs and applies longLogRecords records one at a time, as
// serve's writer does.  The topology record wires in a new vertex with two
// edges and deletes edge 0.  Every weight batch moves about a third of the
// live edges to non-integral weights, first rewrites one edge's current
// weight (a zero delta) and last names an edge a second time, so a replay
// that summed an edge's deltas or took them out of order would show in the
// last bits.  It returns the directory, the live index and its vertex count.
func writeLongLog(tb testing.TB) (string, *dtlp.Index, int) {
	tb.Helper()
	const seed, n, z, xi = 97, 40, 8, 2
	_, x := buildIndex(tb, seed, n, z, xi)
	dir := tb.TempDir()
	st, err := Open(dir, Options{SyncEvery: longLogRecords})
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	if _, err := st.SaveSnapshot(x); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for epoch := uint64(1); epoch <= longLogRecords; epoch++ {
		if epoch == longLogTopology {
			up := graph.TopologyUpdate{
				AddVertices: 1,
				InsertEdges: []graph.Edge{{U: 3, V: n, Weight: 2.25}, {U: n, V: 5, Weight: 1.75}},
				DeleteEdges: []graph.EdgeID{0},
			}
			if err := st.AppendTopology(epoch, up); err != nil {
				tb.Fatal(err)
			}
			if _, err := x.ApplyTopology(up); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		g, v := x.Partition().Parent(), x.CurrentView()
		var live []graph.EdgeID
		for e := range graph.EdgeID(g.NumEdges()) {
			if g.EdgeAlive(e) {
				live = append(live, e)
			}
		}
		same := live[rng.Intn(len(live))]
		batch := []graph.WeightUpdate{{Edge: same, NewWeight: v.GlobalWeight(same)}}
		for _, e := range live {
			if rng.Float64() < 0.3 {
				batch = append(batch, graph.WeightUpdate{Edge: e, NewWeight: 1 + 9*rng.Float64()})
			}
		}
		batch = append(batch, graph.WeightUpdate{Edge: batch[len(batch)-1].Edge, NewWeight: 1 + 9*rng.Float64()})
		if err := st.AppendBatch(epoch, batch); err != nil {
			tb.Fatal(err)
		}
		if us, err := x.ApplyUpdates(batch); err != nil || us.Epoch != epoch {
			tb.Fatalf("applying epoch %d published epoch %d: %v", epoch, us.Epoch, err)
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir, x, n + 1
}

// TestRecoverLongLog recovers a log longer than the window of views an index
// retains, split into two runs of weight records by a topology record.  The
// recovered index must hold the live index's state bit for bit, retain views
// for exactly the epochs the live one does, each bit-identical, and answer
// queries identically.  A record the index refuses inside a run must fail
// the recovery, naming that record's epoch.
func TestRecoverLongLog(t *testing.T) {
	dir, x, n := writeLongLog(t)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec, err := st.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.SnapshotEpoch != 0 || rec.Epoch != longLogRecords || rec.ReplayedBatches != longLogRecords {
		t.Fatalf("recovery summary: snapshot %d, epoch %d, replayed %d; want 0, %d, %d",
			rec.SnapshotEpoch, rec.Epoch, rec.ReplayedBatches, longLogRecords, longLogRecords)
	}
	requireIdenticalIndexes(t, x, rec.Index)
	retained := 0
	for epoch := uint64(0); epoch <= longLogRecords; epoch++ {
		wv, gv := x.ViewAt(epoch), rec.Index.ViewAt(epoch)
		if (wv == nil) != (gv == nil) {
			t.Fatalf("epoch %d: live index retains it %v, recovered %v", epoch, wv != nil, gv != nil)
		}
		if wv != nil {
			requireIdenticalViews(t, wv, gv)
			retained++
		}
	}
	if retained == 0 || retained >= longLogRecords-longLogTopology {
		t.Fatalf("%d epochs retained: the second run of weight records must outgrow the window", retained)
	}
	requireIdenticalAnswers(t, x, rec.Index, n, 98, 3)

	// Edge 0 was deleted at epoch longLogTopology.  A weight record on it,
	// written straight to the log in the middle of a run, is refused.
	if err := st.AppendBatch(longLogRecords+1, []graph.WeightUpdate{{Edge: 0, NewWeight: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(longLogRecords+2, []graph.WeightUpdate{{Edge: 1, NewWeight: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("epoch %d:", longLogRecords+1)) {
		t.Fatalf("Recover of a weight record on a deleted edge: %v, want an error naming epoch %d", err, longLogRecords+1)
	}
}

// TestWALTornTail truncates the WAL mid-record (a crash during append) and
// checks recovery stops cleanly at the last complete record, and that a
// subsequent append reuses the valid prefix.
func TestWALTornTail(t *testing.T) {
	const seed, n, z, xi = 23, 30, 7, 2
	g, x := buildIndex(t, seed, n, z, xi)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveSnapshot(x); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(x, nil, serve.Options{Workers: 1, Store: st})
	sc := workload.GenerateMixed(g, 0, 3, 2, 0.4, 0.5, seed)
	for _, ev := range sc.Events {
		if len(ev.Updates) > 0 {
			if _, err := srv.ApplyUpdates(context.Background(), ev.Updates); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Close()
	st.Close()

	walPath := filepath.Join(dir, "wal-0000000000000000.log")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatalf("expected WAL segment: %v", err)
	}
	if err := os.Truncate(walPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover after torn tail: %v", err)
	}
	if rec.Epoch != 2 || rec.ReplayedBatches != 2 {
		t.Fatalf("torn-tail recovery reached epoch %d (%d batches), want epoch 2 (2 batches)",
			rec.Epoch, rec.ReplayedBatches)
	}
	// Appending after recovery must truncate the torn bytes and continue.
	if err := st2.AppendBatch(3, []graph.WeightUpdate{{Edge: 0, NewWeight: 9}}); err != nil {
		t.Fatalf("append after torn tail: %v", err)
	}
	st2.Close()
	recs, _, _, err := readWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Epoch != 3 {
		t.Fatalf("WAL after repair holds %d records, want 3 ending at epoch 3", len(recs))
	}
}

// TestWALTornAtWindowEdge cuts a segment of 24 KB records on either side of
// each multiple of 64 KiB, the edges of the stream decoder's read window, and
// reads the cut through readers that hand over all they can and half the
// request: the valid prefix is the records that end at or before the cut,
// and validLen is where the last of them ends.
func TestWALTornAtWindowEdge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0000000000000000.log")
	w, err := createWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int64{w.off} // ends[i] is where the first i records end
	rng := rand.New(rand.NewSource(1))
	for epoch := uint64(1); epoch <= 12; epoch++ {
		batch := make([]graph.WeightUpdate, 2000)
		for i := range batch {
			batch[i] = graph.WeightUpdate{Edge: graph.EdgeID(rng.Intn(5000)), NewWeight: 1 + rng.Float64()}
		}
		if err := w.append(epoch, batch, 12); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.off)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for edge := int64(1 << 16); edge < int64(len(data)); edge += 1 << 16 {
		for _, cut := range []int64{edge - 1, edge, edge + 1} {
			n := 0
			for n+1 < len(ends) && ends[n+1] <= cut {
				n++
			}
			for name, wrap := range map[string]func(io.Reader) io.Reader{
				"whole": func(r io.Reader) io.Reader { return r },
				"half":  iotest.HalfReader,
			} {
				recs, _, validLen, err := decodeWAL(wrap(bytes.NewReader(data[:cut])), cut)
				if err != nil || len(recs) != n || validLen != ends[n] {
					t.Fatalf("%s: cut at byte %d: %d records, validLen %d, %v; want %d records, validLen %d",
						name, cut, len(recs), validLen, err, n, ends[n])
				}
			}
		}
	}
}

// TestWALKeepsLargeAddVertices logs a topology record that adds more
// vertices than the segment has bytes.  add_vertices sizes no allocation in
// the decoder, so it must not be held to the input's length: the record once
// read back as a torn tail and was silently dropped.
func TestWALKeepsLargeAddVertices(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0000000000000000.log")
	w, err := createWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	up := graph.TopologyUpdate{AddVertices: 5000}
	if err := w.appendTopology(1, up, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Topo == nil || !reflect.DeepEqual(*recs[0].Topo, up) {
		t.Fatalf("read back %+v, want the one topology record %+v", recs, up)
	}
}

// TestCompaction checks that a periodic snapshot rotates the WAL and removes
// the previous generation's files.
func TestCompaction(t *testing.T) {
	const seed, n, z, xi = 31, 30, 7, 2
	g, x := buildIndex(t, seed, n, z, xi)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveSnapshot(x); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(x, nil, serve.Options{Workers: 1, Store: st, SnapshotEvery: 2})
	sc := workload.GenerateMixed(g, 0, 4, 2, 0.4, 0.5, seed)
	for _, ev := range sc.Events {
		if len(ev.Updates) > 0 {
			if _, err := srv.ApplyUpdates(context.Background(), ev.Updates); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Close()
	st.Close()

	snaps, wals, err := listGeneration(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != 4 {
		t.Fatalf("expected exactly snap-4 after compaction, got %v", snaps)
	}
	if len(wals) != 1 || wals[0] != 4 {
		t.Fatalf("expected exactly wal-4 after rotation, got %v", wals)
	}
}

// TestRecoverErrors covers the failure modes: empty dir, corrupt snapshot,
// and version mismatch all fail loudly instead of returning wrong state.
func TestRecoverErrors(t *testing.T) {
	empty := t.TempDir()
	if _, err := Open(empty, Options{}); err != nil {
		t.Fatal(err)
	}
	st, _ := Open(empty, Options{})
	if _, err := st.Recover(); err == nil {
		t.Fatal("Recover on an empty dir should fail")
	}

	_, x := buildIndex(t, 5, 26, 7, 2)
	dir := t.TempDir()
	st2, _ := Open(dir, Options{})
	if _, err := st2.SaveSnapshot(x); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	snapPath := filepath.Join(dir, "snap-0000000000000000.ksp")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle: either semantic validation or the checksum
	// must reject the file.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xff
	if err := os.WriteFile(snapPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, _ := Open(dir, Options{})
	if _, err := st3.Recover(); err == nil {
		t.Fatal("Recover of a corrupted snapshot should fail")
	}
}

// TestReusedDataDirColdStart reuses one data directory across two cold
// starts (each restarting the epoch counter at 0) and checks the second
// run's snapshot fully supersedes the first generation: no stale
// higher-epoch snapshot survives for Recover to prefer, and no stale WAL
// records are replayed over the new state.
func TestReusedDataDirColdStart(t *testing.T) {
	const n, z, xi = 30, 7, 2
	dir := t.TempDir()

	// Run 1: snapshot at epoch 0, then three logged batches (epochs 1-3),
	// then a periodic snapshot at epoch 2 leaves snap-2/wal-2 behind.
	g1, x1 := buildIndex(t, 51, n, z, xi)
	st1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st1.SaveSnapshot(x1); err != nil {
		t.Fatal(err)
	}
	srv1 := serve.New(x1, nil, serve.Options{Workers: 1, Store: st1, SnapshotEvery: 2})
	sc := workload.GenerateMixed(g1, 0, 3, 2, 0.4, 0.5, 51)
	for _, ev := range sc.Events {
		if len(ev.Updates) > 0 {
			if _, err := srv1.ApplyUpdates(context.Background(), ev.Updates); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv1.Close()
	st1.Close()

	// Run 2: a different cold start (different graph) reuses the directory.
	g2, x2 := buildIndex(t, 52, n, z, xi)
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.SaveSnapshot(x2); err != nil {
		t.Fatal(err)
	}
	snaps, wals, err := listGeneration(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != 0 || len(wals) != 1 || wals[0] != 0 {
		t.Fatalf("run 2's epoch-0 snapshot must supersede run 1's generation, got snaps %v wals %v", snaps, wals)
	}
	srv2 := serve.New(x2, nil, serve.Options{Workers: 1, Store: st2})
	sc2 := workload.GenerateMixed(g2, 0, 2, 2, 0.4, 0.5, 52)
	for _, ev := range sc2.Events {
		if len(ev.Updates) > 0 {
			if _, err := srv2.ApplyUpdates(context.Background(), ev.Updates); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv2.Close()
	st2.Close()

	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st3.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.SnapshotEpoch != 0 || rec.Epoch != 2 || rec.ReplayedBatches != 2 {
		t.Fatalf("recovery picked up stale state: snapshot %d, epoch %d, replayed %d; want 0, 2, 2",
			rec.SnapshotEpoch, rec.Epoch, rec.ReplayedBatches)
	}
	requireIdenticalIndexes(t, x2, rec.Index)
	st3.Close()
}

// TestTornHeaderSegment simulates the crash window between WAL segment
// creation and header durability: a zero-length (or partial-header) segment
// must neither fail recovery of an intact snapshot nor wedge appends.
func TestTornHeaderSegment(t *testing.T) {
	const n, z, xi = 26, 7, 2
	_, x := buildIndex(t, 61, n, z, xi)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveSnapshot(x); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Clobber the rotated segment with a partial header.
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000000.log"), []byte("KSPD"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover must tolerate a torn-header segment: %v", err)
	}
	if rec.Epoch != 0 || rec.ReplayedBatches != 0 {
		t.Fatalf("unexpected recovery summary: %+v", rec)
	}
	// Appends must recreate the dead segment instead of failing forever.
	if err := st2.AppendBatch(1, []graph.WeightUpdate{{Edge: 0, NewWeight: 3}}); err != nil {
		t.Fatalf("append after torn header: %v", err)
	}
	st2.Close()
	recs, start, _, err := readWAL(filepath.Join(dir, "wal-0000000000000000.log"))
	if err != nil || start != 0 || len(recs) != 1 || recs[0].Epoch != 1 {
		t.Fatalf("recreated segment: start %d, %d records, err %v", start, len(recs), err)
	}
}

// TestAppendEpochGapRefused pins the WAL contiguity contract: once a batch's
// append is lost, later epochs are refused until a snapshot resynchronises
// the log — a recorded gap would make the whole directory unrecoverable.
func TestAppendEpochGapRefused(t *testing.T) {
	_, x := buildIndex(t, 71, 26, 7, 2)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveSnapshot(x); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(1, []graph.WeightUpdate{{Edge: 0, NewWeight: 2}}); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 "failed" (never appended); epoch 3 must be refused.
	if err := st.AppendBatch(3, []graph.WeightUpdate{{Edge: 1, NewWeight: 4}}); err == nil {
		t.Fatal("append with an epoch gap must be refused")
	}
	// A snapshot at the index's current epoch resynchronises: the rotated
	// segment accepts the epoch after the snapshot's.
	if _, err := x.ApplyUpdates([]graph.WeightUpdate{{Edge: 0, NewWeight: 5}}); err != nil {
		t.Fatal(err)
	}
	epoch, err := st.SaveSnapshot(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(epoch+1, []graph.WeightUpdate{{Edge: 1, NewWeight: 4}}); err != nil {
		t.Fatalf("append after resync snapshot: %v", err)
	}
	// Orphaned snapshot temp files are swept by compaction.
	tmp := filepath.Join(dir, "snap-orphan.tmp")
	if err := os.WriteFile(tmp, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveSnapshot(x); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("orphaned %s should be swept by snapshot compaction", tmp)
	}
	st.Close()
}

// TestRecoverMixedKinds interleaves weight and topology records in the WAL —
// with the periodic snapshot landing between them, so the snapshot captures a
// post-topology graph and the replayed tail contains both record kinds — and
// requires the recovered index to be bit-identical to a never-crashed
// reference that applied the same sequence.
func TestRecoverMixedKinds(t *testing.T) {
	const seed, n, z, xi, k = 31, 32, 7, 2, 3
	gA, xA := buildIndex(t, seed, n, z, xi)
	_, xB := buildIndex(t, seed, n, z, xi)
	nE := graph.EdgeID(gA.NumEdges())

	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvA := serve.New(xA, nil, serve.Options{Workers: 1})
	defer srvA.Close()
	// SnapshotEvery counts weight and topology batches alike: the snapshot
	// lands at epoch 3 (after the first topology batch), leaving epochs 4-5 —
	// one of each kind — in the WAL tail.
	srvB := serve.New(xB, nil, serve.Options{Workers: 1, Store: st, SnapshotEvery: 3})

	weights := func(ups ...graph.WeightUpdate) {
		t.Helper()
		if _, err := srvA.ApplyUpdates(context.Background(), ups); err != nil {
			t.Fatalf("reference ApplyUpdates: %v", err)
		}
		if _, err := srvB.ApplyUpdates(context.Background(), ups); err != nil {
			t.Fatalf("stored ApplyUpdates: %v", err)
		}
	}
	topology := func(up graph.TopologyUpdate) {
		t.Helper()
		if _, err := srvA.ApplyTopology(context.Background(), up); err != nil {
			t.Fatalf("reference ApplyTopology: %v", err)
		}
		if _, err := srvB.ApplyTopology(context.Background(), up); err != nil {
			t.Fatalf("stored ApplyTopology: %v", err)
		}
	}

	weights(graph.WeightUpdate{Edge: 1, NewWeight: 4.25}, graph.WeightUpdate{Edge: 2, NewWeight: 2.5}) // epoch 1
	topology(graph.TopologyUpdate{                                                                     // epoch 2: fresh vertex n wired in, edge 0 tombstoned
		AddVertices: 1,
		InsertEdges: []graph.Edge{{U: 0, V: graph.VertexID(n), Weight: 2.25}, {U: graph.VertexID(n), V: 1, Weight: 1.75}},
		DeleteEdges: []graph.EdgeID{0},
	})
	weights(graph.WeightUpdate{Edge: nE, NewWeight: 3.5}, graph.WeightUpdate{Edge: 3, NewWeight: 6}) // epoch 3: touches an inserted edge
	topology(graph.TopologyUpdate{                                                                   // epoch 4: delete + insert in one batch
		DeleteEdges: []graph.EdgeID{2},
		InsertEdges: []graph.Edge{{U: 4, V: 7, Weight: 5.5}},
	})
	weights(graph.WeightUpdate{Edge: nE + 2, NewWeight: 4.75}) // epoch 5

	if stats := srvB.Stats(); stats.Snapshots != 1 || stats.TopologyBatches != 2 {
		t.Fatalf("stored server stats: %d snapshots, %d topology batches; want 1, 2", stats.Snapshots, stats.TopologyBatches)
	}

	// Crash and recover.
	srvB.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.SnapshotEpoch != 3 || rec.Epoch != 5 || rec.ReplayedBatches != 2 {
		t.Fatalf("recovery summary: snapshot %d, epoch %d, replayed %d; want 3, 5, 2",
			rec.SnapshotEpoch, rec.Epoch, rec.ReplayedBatches)
	}
	if got, want := rec.Graph.NumVertices(), n+1; got != want {
		t.Fatalf("recovered vertex count = %d, want %d", got, want)
	}
	if rec.Graph.EdgeAlive(0) || rec.Graph.EdgeAlive(2) {
		t.Fatal("recovered graph resurrected a deleted edge")
	}
	if !rec.Graph.EdgeAlive(nE) || !rec.Graph.EdgeAlive(nE+2) {
		t.Fatal("recovered graph lost an inserted edge")
	}
	requireIdenticalIndexes(t, xA, rec.Index)
	requireIdenticalAnswers(t, xA, rec.Index, n+1, seed+100, k)

	// The warm-started server continues the interleaved stream: one more
	// topology batch must land as epoch 6 on both sides and stay identical.
	srvC := serve.New(rec.Index, nil, serve.Options{Workers: 1, Store: st2})
	defer srvC.Close()
	more := graph.TopologyUpdate{InsertEdges: []graph.Edge{{U: 2, V: 9, Weight: 3.25}}}
	if _, err := srvA.ApplyTopology(context.Background(), more); err != nil {
		t.Fatal(err)
	}
	if _, err := srvC.ApplyTopology(context.Background(), more); err != nil {
		t.Fatal(err)
	}
	if got := rec.Index.CurrentView().Epoch(); got != 6 {
		t.Fatalf("warm-started epoch = %d, want 6", got)
	}
	requireIdenticalIndexes(t, xA, rec.Index)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}
