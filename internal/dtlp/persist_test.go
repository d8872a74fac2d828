package dtlp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"kspdg/internal/partition"
)

type exportedPath struct {
	sub partition.SubgraphID
	rec PathRecord
}

// exportPaths copies x's path record stream, in export order.
func exportPaths(t *testing.T, x *Index) []exportedPath {
	t.Helper()
	var out []exportedPath
	err := x.ExportState(func(st ExportedState) error {
		return st.Paths(func(sub partition.SubgraphID, rec PathRecord) error {
			rec.Vertices, rec.Edges = slices.Clone(rec.Vertices), slices.Clone(rec.Edges)
			out = append(out, exportedPath{sub, rec})
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// importPaths feeds recs to a fresh Importer over x's partition and returns
// the imported index or the first error, from Add or from Finish.
func importPaths(x *Index, recs []exportedPath) (*Index, error) {
	imp, err := NewImporter(x.Partition(), x.Config())
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := imp.Add(r.sub, r.rec); err != nil {
			return nil, err
		}
	}
	return imp.Finish(0)
}

// TestImporterRequiresExportOrder pins the order Importer.Add accepts: the
// one ExportState streams, subgraphs ascending and pairs ascending within a
// subgraph.  A record for a lower subgraph after a higher one fails naming
// both, and so does a pair that sorts before the previous pair.
func TestImporterRequiresExportOrder(t *testing.T) {
	_, _, x := buildPaperIndex(t, 2)
	recs := exportPaths(t, x)
	if _, err := importPaths(x, recs); err != nil {
		t.Fatalf("export order: %v", err)
	}

	// The first record of the second subgraph with records, moved in front.
	i := slices.IndexFunc(recs, func(r exportedPath) bool { return r.sub != recs[0].sub })
	if i < 0 {
		t.Fatal("the paper index has records for one subgraph only")
	}
	swapped := append([]exportedPath{recs[i]}, slices.Delete(slices.Clone(recs), i, i+1)...)
	want := fmt.Sprintf("subgraph %d after subgraph %d", recs[0].sub, recs[i].sub)
	if _, err := importPaths(x, swapped); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a lower subgraph after a higher one: %v, want an error naming %q", err, want)
	}

	// The first record of the first subgraph's second pair, moved in front.
	j := slices.IndexFunc(recs, func(r exportedPath) bool { return r.rec.Pair != recs[0].rec.Pair })
	if j < 0 || recs[j].sub != recs[0].sub {
		t.Fatal("the first subgraph with records indexes one pair only")
	}
	swapped = append([]exportedPath{recs[j]}, slices.Delete(slices.Clone(recs), j, j+1)...)
	first, second := recs[0].rec.Pair, recs[j].rec.Pair
	want = fmt.Sprintf("pair (%d,%d) of subgraph %d after pair (%d,%d)", first.A, first.B, recs[0].sub, second.A, second.B)
	if _, err := importPaths(x, swapped); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a pair before the previous one: %v, want an error naming %q", err, want)
	}
}

// TestImportedArraysHaveExactCapacity holds an imported index to the memory
// of a built one: Add grows each subgraph's arrays by append from a size
// guessed off the previous subgraph, and Finish must leave none of them
// with spare capacity.  The benchmark's network at z = 80 has subgraphs of
// differing sizes, so some arrays outgrow their guess.
func TestImportedArraysHaveExactCapacity(t *testing.T) {
	g := rulerNetwork(t)
	part, err := partition.PartitionGraph(g, 80)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(part, Config{Xi: 3})
	if err != nil {
		t.Fatal(err)
	}
	y, err := importPaths(x, exportPaths(t, x))
	if err != nil {
		t.Fatal(err)
	}
	for id := range part.NumSubgraphs() {
		si := y.SubgraphIndex(partition.SubgraphID(id))
		for _, a := range []struct {
			name     string
			len, cap int
		}{
			{"pairKeys", len(si.pairKeys), cap(si.pairKeys)},
			{"pairOff", len(si.pairOff), cap(si.pairOff)},
			{"dist", len(si.dist), cap(si.dist)},
			{"vfrags", len(si.vfrags), cap(si.vfrags)},
			{"vertOff", len(si.vertOff), cap(si.vertOff)},
			{"verts", len(si.verts), cap(si.verts)},
			{"edgeOff", len(si.edgeOff), cap(si.edgeOff)},
			{"edges", len(si.edges), cap(si.edges)},
		} {
			if a.cap != a.len {
				t.Errorf("subgraph %d: %s has capacity %d for length %d", id, a.name, a.cap, a.len)
			}
		}
	}
}
