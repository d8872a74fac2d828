package store

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/serve"
)

// faultyFile wraps a WAL segment's file and fails its fsync and/or its
// truncate on demand, standing in for a disk that refuses them.
type faultyFile struct {
	walFile
	failSync, failTruncate bool
}

var errInjected = errors.New("injected I/O failure")

func (f *faultyFile) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.walFile.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.walFile.Truncate(size)
}

// An append whose fsync fails is taken back, so the caller can log another
// batch under the same epoch; a writer whose rollback failed refuses appends
// until a snapshot of the unchanged index replaces its segment.
func TestAppendFsyncFailureLeavesNothingLogged(t *testing.T) {
	_, x := buildIndex(t, 81, 26, 7, 2)
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.SaveSnapshot(x); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(1, []graph.WeightUpdate{{Edge: 0, NewWeight: 2}}); err != nil {
		t.Fatal(err)
	}
	ff := &faultyFile{walFile: st.wal.f, failSync: true}
	st.wal.f = ff
	if err := st.AppendBatch(2, []graph.WeightUpdate{{Edge: 1, NewWeight: 3}}); !errors.Is(err, errInjected) {
		t.Fatalf("append with a failing fsync: %v", err)
	}
	ff.failSync = false
	if err := st.AppendBatch(2, []graph.WeightUpdate{{Edge: 2, NewWeight: 4}}); err != nil {
		t.Fatalf("the epoch of a failed append must be free again: %v", err)
	}
	recs, _, _, err := readWAL(walPathIn(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Epoch != 2 || recs[1].Batch[0].Edge != 2 {
		t.Fatalf("WAL holds %+v, want epochs 1 and 2 with the second append's batch", recs)
	}

	ff.failSync, ff.failTruncate = true, true
	for i := 0; i < 2; i++ {
		if err := st.AppendBatch(3, []graph.WeightUpdate{{Edge: 1, NewWeight: 5}}); err == nil {
			t.Fatalf("append %d through a writer whose rollback failed was accepted", i)
		}
	}
	// The index never applied epochs 1-3, so its snapshot lands at epoch 0 —
	// the segment's own start — and must still replace the poisoned segment.
	if _, err := st.SaveSnapshot(x); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(1, []graph.WeightUpdate{{Edge: 0, NewWeight: 6}}); err != nil {
		t.Fatalf("append after the resync snapshot: %v", err)
	}
	if recs, _, _, err = readWAL(walPathIn(dir, 0)); err != nil || len(recs) != 1 || recs[0].Batch[0].NewWeight != 6 {
		t.Fatalf("resynchronised WAL holds %+v (err %v), want only the new epoch-1 record", recs, err)
	}
}

// A batch whose append fails is never replayed, whatever the failed append
// left in the segment and whatever its kind: serve resynchronises the log
// with a snapshot, the next batch logs under the refused one's epoch, and
// recovery reproduces a reference that never saw the refused batch, bit for
// bit — including a logged batch that names one edge twice.
func TestServeRefusedBatchNeverRecovered(t *testing.T) {
	const seed, n, z, xi = 83, 30, 7, 2
	type write func(*serve.Server) error
	weights := func(batch ...graph.WeightUpdate) write {
		return func(s *serve.Server) error {
			_, err := s.ApplyUpdates(context.Background(), batch)
			return err
		}
	}
	deleteEdge := func(e graph.EdgeID) write {
		return func(s *serve.Server) error {
			_, err := s.ApplyTopology(context.Background(), graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{e}})
			return err
		}
	}
	for _, c := range []struct {
		name              string
		goodFirst         bool // log one batch before the failing append
		rollbackFails     bool
		wantSnapshotEpoch uint64
		refused, next     write
	}{
		{"fsync fails", true, false, 1, weights(graph.WeightUpdate{Edge: 1, NewWeight: 9.5}), weights(graph.WeightUpdate{Edge: 2, NewWeight: 3.75})},
		{"fsync and rollback fail", true, true, 1, weights(graph.WeightUpdate{Edge: 1, NewWeight: 9.5}), weights(graph.WeightUpdate{Edge: 2, NewWeight: 3.75})},
		{"fsync and rollback fail on the segment's first record", false, true, 0, weights(graph.WeightUpdate{Edge: 1, NewWeight: 9.5}), weights(graph.WeightUpdate{Edge: 2, NewWeight: 3.75})},
		{"topology: fsync fails", true, false, 1, deleteEdge(1), deleteEdge(2)},
		{"topology: fsync and rollback fail", true, true, 1, deleteEdge(1), deleteEdge(2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, xA := buildIndex(t, seed, n, z, xi)
			_, xB := buildIndex(t, seed, n, z, xi)
			dir := t.TempDir()
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.SaveSnapshot(xB); err != nil {
				t.Fatal(err)
			}
			ref := serve.New(xA, nil, serve.Options{Workers: 1})
			defer ref.Close()
			srv := serve.New(xB, nil, serve.Options{Workers: 1, Store: st})
			apply := func(w write) {
				t.Helper()
				if err := w(ref); err != nil {
					t.Fatal(err)
				}
				if err := w(srv); err != nil {
					t.Fatal(err)
				}
			}
			if c.goodFirst {
				// Edge 0 twice: the WAL holds the repeat, and replay must land
				// where the last write did.
				apply(weights(graph.WeightUpdate{Edge: 0, NewWeight: 7.25}, graph.WeightUpdate{Edge: 3, NewWeight: 2}, graph.WeightUpdate{Edge: 0, NewWeight: 1.5}))
			}
			before := xB.CurrentView()
			st.wal.f = &faultyFile{walFile: st.wal.f, failSync: true, failTruncate: c.rollbackFails}
			if err := c.refused(srv); !errors.Is(err, errInjected) {
				t.Fatalf("failed append not surfaced: %v", err)
			}
			if xB.CurrentView() != before {
				t.Fatalf("a refused batch was published: epoch %d", xB.CurrentView().Epoch())
			}
			snaps, wals, err := listGeneration(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) != 1 || snaps[0] != c.wantSnapshotEpoch || len(wals) != 1 || wals[0] != c.wantSnapshotEpoch {
				t.Fatalf("after the refused batch: snapshots %v, segments %v; want one resync generation at epoch %d", snaps, wals, c.wantSnapshotEpoch)
			}
			apply(c.next)
			if got, want := xB.CurrentView().Epoch(), before.Epoch()+1; got != want {
				t.Fatalf("next batch published epoch %d, want the refused one's %d", got, want)
			}
			srv.Close()
			st.Close()

			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			rec, err := st2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			requireIdenticalIndexes(t, xA, rec.Index)
			if got, want := rec.Graph.NumLiveEdges(), xA.Partition().Parent().NumLiveEdges(); got != want {
				t.Fatalf("recovered graph has %d live edges, the reference %d", got, want)
			}
		})
	}
}

// Replay refuses a weight record the index would refuse — a NaN or infinite
// weight, which a writer checking only for negative weights could log — on
// both the master's and the workers' recovery path, naming its epoch.
func TestRecoverRefusesNonFiniteWeight(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		_, x := buildIndex(t, 85, 26, 7, 2)
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
		if err := st.AppendBatch(2, []graph.WeightUpdate{{Edge: 1, NewWeight: w}}); err != nil {
			t.Fatal(err)
		}
		st.Close()
		if _, err := st.Recover(); err == nil || !strings.Contains(err.Error(), "epoch 2") {
			t.Errorf("Recover of a weight-%g record: %v", w, err)
		}
		if _, _, _, err := RecoverTopology(dir); err == nil || !strings.Contains(err.Error(), "epoch 2") {
			t.Errorf("RecoverTopology of a weight-%g record: %v", w, err)
		}
	}
}
