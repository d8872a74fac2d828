package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/testutil"
)

// seedRecords are the batches of the seed WAL: two weight batches, then a
// topology batch that inserts an edge, deletes an edge and deletes a vertex,
// so the corpus reaches both record kinds and the snapshot holds tombstones.
var seedRecords = []walRecord{
	{Epoch: 1, Batch: []graph.WeightUpdate{{Edge: 0, NewWeight: 2.5}, {Edge: 1, NewWeight: 7}}},
	{Epoch: 2, Batch: []graph.WeightUpdate{{Edge: 2, NewWeight: 1.25}}},
	{Epoch: 3, Topo: &graph.TopologyUpdate{
		InsertEdges:    []graph.Edge{{U: 0, V: 17, Weight: 3.5}},
		DeleteEdges:    []graph.EdgeID{3},
		DeleteVertices: []graph.VertexID{5},
	}},
}

// seedIndex builds the seed index (RandomConnected seed 9, 18 vertices,
// z = 6, ξ = 2) and applies seedRecords to it.
func seedIndex(tb testing.TB) *dtlp.Index {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	g := testutil.RandomConnected(rng, 18, 6)
	part, err := partition.PartitionGraph(g, 6)
	if err != nil {
		tb.Fatal(err)
	}
	x, err := dtlp.Build(part, dtlp.Config{Xi: 2})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range seedRecords {
		if r.Topo != nil {
			_, err = x.ApplyTopology(*r.Topo)
		} else {
			_, err = x.ApplyUpdates(r.Batch)
		}
		if err != nil {
			tb.Fatalf("seed epoch %d: %v", r.Epoch, err)
		}
	}
	return x
}

// fuzzSeedBytes produces a valid snapshot of seedIndex and a valid WAL
// segment holding seedRecords, to seed the corpus so the fuzzer mutates
// structurally plausible inputs instead of only flailing at the magic bytes.
func fuzzSeedBytes(tb testing.TB) (snap, wal []byte) {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := encodeSnapshot(&buf, seedIndex(tb)); err != nil {
		tb.Fatal(err)
	}

	path := filepath.Join(tb.TempDir(), "wal-0000000000000000.log")
	w, err := createWAL(path, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range seedRecords {
		if r.Topo != nil {
			err = w.appendTopology(r.Epoch, *r.Topo, 1)
		} else {
			err = w.append(r.Epoch, r.Batch, 1)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		tb.Fatal(err)
	}
	walBytes, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), walBytes
}

// TestFormatGolden pins both byte formats to files an earlier build of the
// codec wrote: encoding the seed state must reproduce them byte for byte, and
// decoding them must give back the seed index and records.  A failure here
// means the on-disk format changed, which needs a FormatVersion bump (see the
// package comment).
func TestFormatGolden(t *testing.T) {
	snap, wal := fuzzSeedBytes(t)
	goldenSnap, err := os.ReadFile(filepath.Join("testdata", "seed.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	goldenWAL, err := os.ReadFile(filepath.Join("testdata", "seed.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, goldenSnap) {
		t.Errorf("snapshot encoding differs from testdata/seed.snapshot (%d vs %d bytes)", len(snap), len(goldenSnap))
	}
	if !bytes.Equal(wal, goldenWAL) {
		t.Errorf("WAL encoding differs from testdata/seed.wal (%d vs %d bytes)", len(wal), len(goldenWAL))
	}

	sc, err := decodeSnapshot(bytes.NewReader(goldenSnap), int64(len(goldenSnap)), false)
	if err != nil {
		t.Fatalf("decoding testdata/seed.snapshot: %v", err)
	}
	requireIdenticalIndexes(t, seedIndex(t), sc.index)
	recs, start, validLen, err := decodeWAL(bytes.NewReader(goldenWAL), int64(len(goldenWAL)))
	if err != nil {
		t.Fatalf("decoding testdata/seed.wal: %v", err)
	}
	if start != 0 || validLen != int64(len(goldenWAL)) || !reflect.DeepEqual(recs, seedRecords) {
		t.Fatalf("testdata/seed.wal decodes to start %d, %d of %d bytes, records %+v; want 0, all, %+v",
			start, validLen, len(goldenWAL), recs, seedRecords)
	}
}

// FuzzSnapshotDecode feeds arbitrary (seeded with valid, then mutated)
// bytes to the snapshot and WAL decoders.  Both must return clean errors on
// corrupted or truncated input — never panic, never allocate unboundedly,
// and never hand back state that failed validation or checksum.
func FuzzSnapshotDecode(f *testing.F) {
	snap, wal := fuzzSeedBytes(f)
	f.Add(snap)
	f.Add(wal)
	f.Add([]byte(snapMagic))
	f.Add([]byte(walMagic))
	f.Add([]byte{})
	// Truncations and single-byte corruptions of the valid snapshot.
	f.Add(snap[:len(snap)/2])
	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		sc, err := decodeSnapshot(bytes.NewReader(data), int64(len(data)), false)
		if err == nil && sc.index == nil {
			t.Fatal("decodeSnapshot returned no error and no index")
		}
		if _, err := decodeSnapshot(bytes.NewReader(data), int64(len(data)), true); err != nil {
			_ = err // errors are expected; panics are the failure mode
		}
		if _, _, _, err := decodeWAL(bytes.NewReader(data), int64(len(data))); err != nil {
			_ = err
		}
	})
}

// TestFuzzSeedsDecode pins the seed corpus behaviour without the fuzzer:
// the pristine snapshot decodes, every prefix truncation fails cleanly, and
// every single-byte corruption either fails or still checksums out (it must
// never panic).
func TestFuzzSeedsDecode(t *testing.T) {
	snap, wal := fuzzSeedBytes(t)
	if _, err := decodeSnapshot(bytes.NewReader(snap), int64(len(snap)), false); err != nil {
		t.Fatalf("pristine snapshot failed to decode: %v", err)
	}
	if recs, _, _, err := decodeWAL(bytes.NewReader(wal), int64(len(wal))); err != nil || len(recs) != 3 {
		t.Fatalf("pristine WAL decode: %d records, err %v", len(recs), err)
	}
	for cut := 0; cut < len(snap); cut += 7 {
		if _, err := decodeSnapshot(bytes.NewReader(snap[:cut]), int64(cut), false); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	for i := 0; i < len(snap); i += 11 {
		mut := append([]byte(nil), snap...)
		mut[i] ^= 0xa5
		_, err := decodeSnapshot(bytes.NewReader(mut), int64(len(mut)), false)
		if err == nil && i > 12 {
			// Everything after the header is covered by the CRC trailer, so a
			// bit flip must be detected somewhere (validation or checksum).
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
	for cut := 0; cut < len(wal); cut += 5 {
		recs, _, _, err := decodeWAL(bytes.NewReader(wal[:cut]), int64(cut))
		if cut >= 20 && err != nil {
			t.Fatalf("WAL truncation at %d should yield a valid prefix, got error %v", cut, err)
		}
		if cut < 20 && err == nil {
			t.Fatalf("WAL header truncation at %d decoded without error", cut)
		}
		_ = recs
	}
}
