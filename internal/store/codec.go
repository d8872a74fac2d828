package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

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
// Both file formats follow one frame rule: a frame is its bytes followed by
// the u32 CRC-32C of those bytes.  A snapshot file is one frame; a WAL
// segment is a header outside any frame, then one frame per record.  enc and
// dec below are the only code that reads or writes either format's bytes.

const (
	snapMagic = "KSPDSNP1"
	walMagic  = "KSPDWAL1"

	// FormatVersion is the current snapshot and WAL format version.  See the
	// package comment in store.go for the version policy.  Version 2 added
	// edge tombstones to snapshots and topology records to the WAL.
	FormatVersion = 2

	encChunk = 1 << 16 // an enc with a writer flushes at this many bytes
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// enc appends little-endian fields to buf.  With a writer it flushes every
// encChunk bytes; without one the caller takes buf.  The first write error
// sticks, and flush returns it.
type enc struct {
	w    io.Writer
	buf  []byte
	mark int    // start in buf of the current frame's bytes not yet in crc
	crc  uint32 // CRC-32C of the current frame's bytes before mark
	err  error
}

func (e *enc) str(s string)  { e.buf = append(e.buf, s...); e.spill() }
func (e *enc) u8(v uint8)    { e.buf = append(e.buf, v); e.spill() }
func (e *enc) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v); e.spill() }
func (e *enc) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v); e.spill() }
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) count(n int)   { e.u32(uint32(n)) }
func (e *enc) count64(n int) { e.u64(uint64(n)) }

func (e *enc) bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	e.u8(b)
}

func putIDs[T ~int32](e *enc, ids []T) {
	for _, v := range ids {
		e.i32(int32(v))
	}
}

func (e *enc) spill() {
	if e.w != nil && len(e.buf) >= encChunk {
		e.flush()
	}
}

// frame ends a frame: it appends the CRC-32C of every byte since the
// previous frame ended, or since the encoder started.
func (e *enc) frame() {
	sum := crc32.Update(e.crc, crcTable, e.buf[e.mark:])
	e.buf = binary.LittleEndian.AppendUint32(e.buf, sum)
	e.mark, e.crc = len(e.buf), 0
}

// flush writes buf to w, folding the current frame's part of it into crc.
func (e *enc) flush() error {
	e.crc = crc32.Update(e.crc, crcTable, e.buf[e.mark:])
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf, e.mark = e.buf[:0], 0
	return e.err
}

// dec reads little-endian fields, keeping the CRC-32C of the current frame
// and the count of bytes consumed.  The first error sticks: from then on
// every field reads as zero and every count as 0, so callers check err once
// per structure instead of once per field.
type dec struct {
	r    *bufio.Reader
	size int64  // input length, bounding count fields
	n    int64  // bytes consumed
	crc  uint32 // CRC-32C of the current frame so far
	err  error
	buf  [8]byte
}

func newDec(r io.Reader, size int64) *dec {
	return &dec{r: bufio.NewReaderSize(r, encChunk), size: size}
}

// failf records an error unless one is already recorded.
func (d *dec) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) read(k int) []byte {
	p := d.buf[:k]
	if d.err == nil {
		if _, err := io.ReadFull(d.r, p); err != nil {
			d.failf("truncated input at byte %d: %w", d.n, err)
		}
	}
	if d.err != nil {
		clear(p)
		return p
	}
	d.crc = crc32.Update(d.crc, crcTable, p)
	d.n += int64(k)
	return p
}

func (d *dec) str(k int) string { return string(d.read(k)) }
func (d *dec) u8() uint8        { return d.read(1)[0] }
func (d *dec) u32() uint32      { return binary.LittleEndian.Uint32(d.read(4)) }
func (d *dec) u64() uint64      { return binary.LittleEndian.Uint64(d.read(8)) }
func (d *dec) i32() int32       { return int32(d.u32()) }
func (d *dec) f64() float64     { return math.Float64frombits(d.u64()) }

func (d *dec) bool() bool {
	v := d.u8()
	if v > 1 {
		d.failf("flag %d at byte %d is neither 0 nor 1", v, d.n-1)
	}
	return v == 1
}

// count reads a u32 count of elements taking at least elem bytes each and
// fails it when the rest of the input cannot hold them, so a corrupt count
// cannot force a huge allocation.  A count of things the input does not
// spell out element by element (vertices, z) passes elem 0 and is held to
// the whole input's length instead, as a sanity cap.
func (d *dec) count(elem int64) int { return d.bound(uint64(d.u32()), elem) }

// count64 is count for a u64 count field.
func (d *dec) count64(elem int64) int { return d.bound(d.u64(), elem) }

func (d *dec) bound(v uint64, elem int64) int {
	limit := d.size
	if elem > 0 {
		limit = (d.size - d.n) / elem
	}
	if v > uint64(max(limit, 0)) || v > math.MaxInt32 {
		d.failf("count %d before byte %d exceeds what the %d-byte input can hold", v, d.n, d.size)
		return 0
	}
	return int(v)
}

func getIDs[T ~int32](d *dec, n int) []T {
	ids := make([]T, n)
	for i := range ids {
		ids[i] = T(d.i32())
	}
	return ids
}

// frame ends a frame: it reads the CRC-32C trailer, checks it against the
// bytes read since the previous frame ended, and starts the next frame.
func (d *dec) frame() {
	want := d.crc
	if got := d.u32(); got != want {
		d.failf("checksum mismatch at byte %d: stored %08x, computed %08x", d.n-4, got, want)
	}
	d.crc = 0
}

// Weight-batch payload: u32 count | count × (i32 edge | f64 weight).
func (e *enc) weights(batch []graph.WeightUpdate) {
	e.count(len(batch))
	for _, u := range batch {
		e.i32(int32(u.Edge))
		e.f64(u.NewWeight)
	}
}

func (d *dec) weights() []graph.WeightUpdate {
	batch := make([]graph.WeightUpdate, d.count(12))
	for i := range batch {
		batch[i] = graph.WeightUpdate{Edge: graph.EdgeID(d.i32()), NewWeight: d.f64()}
	}
	return batch
}

// Topology-batch payload: u32 addVertices
// | u32 nIns,  nIns × (i32 u | i32 v | f64 weight)
// | u32 nDelE, nDelE × i32 edge | u32 nDelV, nDelV × i32 vertex.
func (e *enc) topology(up graph.TopologyUpdate) {
	e.count(up.AddVertices)
	e.count(len(up.InsertEdges))
	for _, ed := range up.InsertEdges {
		e.i32(int32(ed.U))
		e.i32(int32(ed.V))
		e.f64(ed.Weight)
	}
	e.count(len(up.DeleteEdges))
	putIDs(e, up.DeleteEdges)
	e.count(len(up.DeleteVertices))
	putIDs(e, up.DeleteVertices)
}

// Go evaluates the calls in a composite literal left to right, so fields are
// read in the order they are written.
func (d *dec) topology() *graph.TopologyUpdate {
	up := &graph.TopologyUpdate{AddVertices: d.count(0)}
	up.InsertEdges = make([]graph.Edge, d.count(16))
	for i := range up.InsertEdges {
		up.InsertEdges[i] = graph.Edge{U: graph.VertexID(d.i32()), V: graph.VertexID(d.i32()), Weight: d.f64()}
	}
	up.DeleteEdges = getIDs[graph.EdgeID](d, d.count(4))
	up.DeleteVertices = getIDs[graph.VertexID](d, d.count(4))
	return up
}

// encodeSnapshot streams a consistent snapshot of the index to w and returns
// the epoch it captured.  It must not race with update application outside
// dtlp's writer lock (ExportState holds it for the whole encode).
func encodeSnapshot(w io.Writer, x *dtlp.Index) (uint64, error) {
	e := &enc{w: w}
	var epoch uint64
	err := x.ExportState(func(st dtlp.ExportedState) error {
		epoch = st.Epoch
		part := x.Partition()
		parent := part.Parent()
		cfg := x.Config()
		e.str(snapMagic)
		e.u32(FormatVersion)
		e.u64(st.Epoch)
		e.u32(uint32(cfg.Xi))
		e.u32(uint32(cfg.MaxEnumerate))
		e.count64(part.Z)

		// Graph topology, initial weights (vfrag counts), and the one weight
		// snapshot: the weights frozen at st.Epoch.
		e.bool(parent.Directed())
		e.count64(parent.NumVertices())
		e.count64(parent.NumEdges())
		for id := graph.EdgeID(0); int(id) < parent.NumEdges(); id++ {
			ends := parent.EdgeEndpoints(id)
			e.i32(int32(ends.U))
			e.i32(int32(ends.V))
			// Dead edges have no meaningful live weight; store the initial
			// weight so the field always validates as finite.
			initW, alive := parent.InitialWeight(id), parent.EdgeAlive(id)
			curW := initW
			if alive {
				curW = st.View.GlobalWeight(id)
			}
			e.f64(initW)
			e.f64(curW)
			e.bool(alive)
		}

		// Partition assignment.
		e.count64(part.NumSubgraphs())
		for i := 0; i < part.NumSubgraphs(); i++ {
			sg := part.Subgraph(partition.SubgraphID(i))
			e.count64(len(sg.Globals))
			putIDs(e, sg.Globals)
			e.count64(len(sg.GlobalEdges))
			putIDs(e, sg.GlobalEdges)
		}

		// The DTLP skeleton structure: every bounding path.
		err := st.Paths(func(sub partition.SubgraphID, rec dtlp.PathRecord) error {
			e.u8(1)
			e.u32(uint32(sub))
			e.i32(int32(rec.Pair.A))
			e.i32(int32(rec.Pair.B))
			e.count(len(rec.Vertices))
			putIDs(e, rec.Vertices)
			e.count(len(rec.Edges))
			putIDs(e, rec.Edges)
			e.f64(rec.Vfrags)
			e.f64(rec.Dist)
			return e.err
		})
		e.u8(0) // end of path stream
		return err
	})
	if err != nil {
		return 0, err
	}
	e.frame()
	return epoch, e.flush()
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
	d := newDec(r, size)
	if magic := d.str(len(snapMagic)); magic != snapMagic {
		d.failf("not a snapshot file (magic %q)", magic)
	}
	if v := d.u32(); v != FormatVersion {
		d.failf("unsupported snapshot format version %d (supported: %d)", v, FormatVersion)
	}
	epoch, xi, maxEnum := d.u64(), d.u32(), d.u32()
	if xi == 0 || xi > math.MaxInt32 || maxEnum > math.MaxInt32 {
		d.failf("invalid index config (xi=%d, maxEnumerate=%d)", xi, maxEnum)
	}
	z := d.count64(0)

	// Graph.
	directed := d.bool()
	b := graph.NewBuilder(d.count64(0), directed)
	curW := make([]float64, d.count64(25))
	for e := 0; e < len(curW) && d.err == nil; e++ {
		u, v, w0, w, alive := d.i32(), d.i32(), d.f64(), d.f64(), d.bool()
		if math.IsNaN(w0) || math.IsInf(w0, 0) || math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			d.failf("edge %d has invalid weights (%g, %g)", e, w0, w)
		}
		id, err := b.AddEdge(graph.VertexID(u), graph.VertexID(v), w0)
		if err == nil && !alive {
			err = b.MarkDead(id)
		}
		if err != nil {
			d.failf("snapshot graph: %w", err)
		}
		curW[e] = w
	}
	if d.err != nil {
		return nil, d.err
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
	subVerts := make([][]graph.VertexID, d.count64(16))
	subEdges := make([][]graph.EdgeID, len(subVerts))
	for i := range subVerts {
		subVerts[i] = getIDs[graph.VertexID](d, d.count64(4))
		subEdges[i] = getIDs[graph.EdgeID](d, d.count64(4))
	}
	if d.err != nil {
		return nil, d.err
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
	for tag := d.u8(); tag != 0; tag = d.u8() {
		if tag != 1 {
			d.failf("invalid path record tag %d", tag)
			break
		}
		sub, pa, pb := d.u32(), d.i32(), d.i32()
		rec := dtlp.PathRecord{ // read in field order, as in topology
			Pair:     dtlp.PairKey{A: graph.VertexID(pa), B: graph.VertexID(pb)},
			Vertices: getIDs[graph.VertexID](d, d.count(4)),
			Edges:    getIDs[graph.EdgeID](d, d.count(4)),
			Vfrags:   d.f64(),
			Dist:     d.f64(),
		}
		if imp != nil && d.err == nil {
			if err := imp.Add(partition.SubgraphID(sub), rec); err != nil {
				d.failf("snapshot path record: %w", err)
			}
		}
	}
	d.frame()
	if d.err != nil {
		return nil, d.err
	}
	sc := &snapshotContents{epoch: epoch, graph: g, partition: part}
	if imp != nil {
		if sc.index, err = imp.Finish(epoch); err != nil {
			return nil, fmt.Errorf("assembling index: %w", err)
		}
	}
	return sc, nil
}
