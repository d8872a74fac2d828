package store

import (
	"fmt"
	"io"
	"math"

	"kspdg/internal/codec"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
)

// Snapshot binary layout (FormatVersion 2), all integers little-endian:
//
//	magic "KSPDSNP1" | u32 version
//	u64 epoch | u32 xi | u32 maxEnumerate | u64 z
//	graph:     u8 directed | u64 numV | u64 numE
//	           numE × (i32 U | i32 V | f64 initW | f64 curW | u8 alive)
//	partition: u64 numSubs
//	           per sub: u64 nv, nv × i32 vertex | u64 ne, ne × i32 edge
//	paths:     records, each u8 tag:
//	           1 | u32 sub | i32 pairA | i32 pairB
//	             | u32 nVerts, nVerts × i32 | u32 nEdges, nEdges × i32
//	             | f64 vfrags | f64 dist
//	           0 terminates the stream
//	trailer:   u32 CRC-32C of everything above
//
// Version 2 added the per-edge alive flag: topology deletes tombstone edges
// (graph.Graph never renumbers ids), and a snapshot must round-trip the
// tombstones so edge ids — which appear in WAL weight records and in future
// topology batches — keep meaning the same edges after recovery.  Dead edges
// still encode their endpoints and initial weight; their curW field carries
// the initial weight (their live weight is meaningless and updates to them
// are rejected).
//
// The encoder streams straight to the writer (no in-memory image), so
// snapshotting a large graph does not double peak memory.  Floats are stored
// as IEEE-754 bits, so weights and path distances round-trip exactly.
//
// Both file formats follow internal/codec's frame rule: a frame is its bytes
// followed by the u32 CRC-32C of those bytes.  A snapshot file is one frame;
// a WAL segment is a header outside any frame, then one frame per record.
// codec's Encoder and Decoder are the only code that reads or writes either
// format's bytes.

const (
	snapMagic = "KSPDSNP1"
	walMagic  = "KSPDWAL1"

	// FormatVersion is the current snapshot and WAL format version.  See the
	// package comment in store.go for the version policy.  Version 2 added
	// edge tombstones to snapshots and topology records to the WAL.
	FormatVersion = 2
)

// encodeSnapshot streams a consistent snapshot of the index to w and returns
// the epoch it captured.  It must not race with update application outside
// dtlp's writer lock (ExportState holds it for the whole encode).
func encodeSnapshot(w io.Writer, x *dtlp.Index) (uint64, error) {
	e := codec.NewEncoder(w)
	var epoch uint64
	err := x.ExportState(func(st dtlp.ExportedState) error {
		epoch = st.Epoch
		part := x.Partition()
		parent := part.Parent()
		cfg := x.Config()
		e.Raw(snapMagic)
		e.U32(FormatVersion)
		e.U64(st.Epoch)
		e.U32(uint32(cfg.Xi))
		e.U32(uint32(cfg.MaxEnumerate))
		e.Count64(part.Z)

		// Graph topology, initial weights (vfrag counts), and the one weight
		// snapshot: the weights frozen at st.Epoch.
		e.Bool(parent.Directed())
		e.Count64(parent.NumVertices())
		e.Count64(parent.NumEdges())
		for id := graph.EdgeID(0); int(id) < parent.NumEdges(); id++ {
			ends := parent.EdgeEndpoints(id)
			e.I32(int32(ends.U))
			e.I32(int32(ends.V))
			// Dead edges have no meaningful live weight; store the initial
			// weight so the field always validates as finite.
			initW, alive := parent.InitialWeight(id), parent.EdgeAlive(id)
			curW := initW
			if alive {
				curW = st.View.GlobalWeight(id)
			}
			e.F64(initW)
			e.F64(curW)
			e.Bool(alive)
		}

		// Partition assignment.
		e.Count64(part.NumSubgraphs())
		for i := 0; i < part.NumSubgraphs(); i++ {
			sg := part.Subgraph(partition.SubgraphID(i))
			e.Count64(len(sg.Globals))
			codec.PutIDs(e, sg.Globals)
			e.Count64(len(sg.GlobalEdges))
			codec.PutIDs(e, sg.GlobalEdges)
		}

		// The DTLP skeleton structure: every bounding path.
		err := st.Paths(func(sub partition.SubgraphID, rec dtlp.PathRecord) error {
			e.U8(1)
			e.U32(uint32(sub))
			e.I32(int32(rec.Pair.A))
			e.I32(int32(rec.Pair.B))
			e.Count(len(rec.Vertices))
			codec.PutIDs(e, rec.Vertices)
			e.Count(len(rec.Edges))
			codec.PutIDs(e, rec.Edges)
			e.F64(rec.Vfrags)
			e.F64(rec.Dist)
			return e.Err()
		})
		e.U8(0) // end of path stream
		return err
	})
	if err != nil {
		return 0, err
	}
	e.Frame()
	return epoch, e.Flush()
}

// snapshotContents is the decoded state of a snapshot file.  Index is nil
// when decoding was asked for topology only.
type snapshotContents struct {
	epoch     uint64
	graph     *graph.Graph
	partition *partition.Partition
	index     *dtlp.Index
}

// decodeSnapshot reads and validates a snapshot of size bytes.  When
// topologyOnly is set the path records are validated and discarded and no
// index is assembled.  Nothing is returned unless the checksum verifies.
func decodeSnapshot(r io.Reader, size int64, topologyOnly bool) (*snapshotContents, error) {
	d := codec.NewDecoder(r, size)
	if magic := d.Raw(len(snapMagic)); magic != snapMagic {
		d.Failf("not a snapshot file (magic %q)", magic)
	}
	if v := d.U32(); v != FormatVersion {
		d.Failf("unsupported snapshot format version %d (supported: %d)", v, FormatVersion)
	}
	epoch, xi, maxEnum := d.U64(), d.U32(), d.U32()
	if xi == 0 || xi > math.MaxInt32 || maxEnum > math.MaxInt32 {
		d.Failf("invalid index config (xi=%d, maxEnumerate=%d)", xi, maxEnum)
	}
	z := d.Count64(0)

	// Graph.
	directed := d.Bool()
	b := graph.NewBuilder(d.Count64(0), directed)
	curW := make([]float64, d.Count64(25))
	for e := 0; e < len(curW) && d.Err() == nil; e++ {
		u, v, w0, w, alive := d.I32(), d.I32(), d.F64(), d.F64(), d.Bool()
		if math.IsNaN(w0) || math.IsInf(w0, 0) || math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			d.Failf("edge %d has invalid weights (%g, %g)", e, w0, w)
		}
		id, err := b.AddEdge(graph.VertexID(u), graph.VertexID(v), w0)
		if err == nil && !alive {
			err = b.MarkDead(id)
		}
		if err != nil {
			d.Failf("snapshot graph: %w", err)
		}
		curW[e] = w
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	g := b.Build()
	var updates []graph.WeightUpdate
	for e, w := range curW {
		if id := graph.EdgeID(e); g.EdgeAlive(id) && g.InitialWeight(id) != w {
			updates = append(updates, graph.WeightUpdate{Edge: id, NewWeight: w})
		}
	}
	if len(updates) > 0 {
		if err := g.ApplyUpdates(updates); err != nil {
			return nil, fmt.Errorf("snapshot weights: %w", err)
		}
	}

	// Partition.
	subVerts := make([][]graph.VertexID, d.Count64(16))
	subEdges := make([][]graph.EdgeID, len(subVerts))
	for i := range subVerts {
		subVerts[i] = codec.GetIDs[graph.VertexID](d, d.Count64(4))
		subEdges[i] = codec.GetIDs[graph.EdgeID](d, d.Count64(4))
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	part, err := partition.Assemble(g, z, subVerts, subEdges)
	if err != nil {
		return nil, fmt.Errorf("snapshot partition: %w", err)
	}

	// Bounding path records.
	var imp *dtlp.Importer
	if !topologyOnly {
		if imp, err = dtlp.NewImporter(part, dtlp.Config{Xi: int(xi), MaxEnumerate: int(maxEnum)}); err != nil {
			return nil, err
		}
	}
	// Every record's ids are decoded into the same two buffers: the Importer
	// copies them into the index and keeps no reference.
	var verts []graph.VertexID
	var edges []graph.EdgeID
	for tag := d.U8(); tag != 0; tag = d.U8() {
		if tag != 1 {
			d.Failf("invalid path record tag %d", tag)
			break
		}
		sub, pa, pb := d.U32(), d.I32(), d.I32()
		verts = codec.AppendIDs(d, verts[:0], d.Count(4))
		edges = codec.AppendIDs(d, edges[:0], d.Count(4))
		rec := dtlp.PathRecord{ // read in field order, as in Decoder.Topology
			Pair:     dtlp.PairKey{A: graph.VertexID(pa), B: graph.VertexID(pb)},
			Vertices: verts,
			Edges:    edges,
			Vfrags:   d.F64(),
			Dist:     d.F64(),
		}
		if imp != nil && d.Err() == nil {
			if err := imp.Add(partition.SubgraphID(sub), rec); err != nil {
				d.Failf("snapshot path record: %w", err)
			}
		}
	}
	d.Frame()
	if d.Err() != nil {
		return nil, d.Err()
	}
	sc := &snapshotContents{epoch: epoch, graph: g, partition: part}
	if imp != nil {
		if sc.index, err = imp.Finish(epoch); err != nil {
			return nil, fmt.Errorf("assembling index: %w", err)
		}
	}
	return sc, nil
}
