package store

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/workload"
)

// rulerIndex builds the end-to-end benchmark's road network (a 30×20 grid,
// 15 % diagonals, 25 % of edges missing, weights 1–10, seed 1) and its
// z = 80, ξ = 3 index: the state its bootstrap snapshot and recovery encode.
func rulerIndex(b *testing.B) *dtlp.Index {
	b.Helper()
	ds, err := workload.Generate(workload.RoadNetworkSpec{
		Width: 30, Height: 20,
		DiagonalFraction: 0.15, MissingFraction: 0.25,
		MinWeight: 1, MaxWeight: 10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.PartitionGraph(ds.Graph, 80)
	if err != nil {
		b.Fatal(err)
	}
	x, err := dtlp.Build(part, dtlp.Config{Xi: 3})
	if err != nil {
		b.Fatal(err)
	}
	return x
}

// writeBenchWAL writes a segment of 20 weight records of 1,000 updates each,
// fsyncing once at the end, and returns its size.
func writeBenchWAL(b *testing.B, path string, batches [][]graph.WeightUpdate) int64 {
	w, err := createWAL(path, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i, batch := range batches {
		if err := w.append(uint64(i+1), batch, len(batches)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		b.Fatal(err)
	}
	return w.off
}

// benchBatches is 20 batches of 1,000 weight updates on the first 1,000
// edge ids.
func benchBatches() [][]graph.WeightUpdate {
	rng := rand.New(rand.NewSource(1))
	batches := make([][]graph.WeightUpdate, 20)
	for i := range batches {
		batches[i] = make([]graph.WeightUpdate, 1000)
		for j := range batches[i] {
			batches[i][j] = graph.WeightUpdate{Edge: graph.EdgeID(rng.Intn(1000)), NewWeight: 1 + 9*rng.Float64()}
		}
	}
	return batches
}

func BenchmarkSnapshotEncode(b *testing.B) {
	x := rulerIndex(b)
	var buf bytes.Buffer
	if _, err := encodeSnapshot(&buf, x); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeSnapshot(io.Discard, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	var buf bytes.Buffer
	if _, err := encodeSnapshot(&buf, rulerIndex(b)); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeSnapshot(bytes.NewReader(snap), int64(len(snap)), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend writes a fresh 20 × 1,000-update segment per op.
func BenchmarkWALAppend(b *testing.B) {
	batches := benchBatches()
	path := filepath.Join(b.TempDir(), "wal.log")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.SetBytes(writeBenchWAL(b, path, batches))
		if err := os.Remove(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALRead reads a 20 × 1,000-update segment back from its file.
func BenchmarkWALRead(b *testing.B) {
	batches := benchBatches()
	path := filepath.Join(b.TempDir(), "wal.log")
	b.SetBytes(writeBenchWAL(b, path, batches))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _, _, err := readWAL(path)
		if err != nil || len(recs) != len(batches) {
			b.Fatalf("read %d records, err %v", len(recs), err)
		}
	}
}
