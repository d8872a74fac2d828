package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"kspdg/internal/graph"
)

// WAL binary layout (FormatVersion 2), all integers little-endian:
//
//	header:  magic "KSPDWAL1" | u32 version | u64 startEpoch
//	record:  u64 epoch | u8 kind | payload
//	         | u32 CRC-32C of the record bytes above
//
//	kind 0 (weights):  u32 count | count × (i32 edge | f64 weight)
//	kind 1 (topology): u32 addVertices
//	                   | u32 nIns,  nIns × (i32 u | i32 v | f64 weight)
//	                   | u32 nDelE, nDelE × i32 edge
//	                   | u32 nDelV, nDelV × i32 vertex
//
// A segment named wal-<startEpoch>.log holds the update batches that
// produced epochs startEpoch+1, startEpoch+2, ...  Weight and topology
// batches interleave in epoch order, exactly as they were applied; replaying
// them in sequence reproduces the crashed process's state bit for bit
// (topology replay re-derives the same edge ids because insertion order is
// part of the record).  Records are flushed to the OS on every append
// (surviving process crashes); fsync is batched per Options.SyncEvery
// (bounding data loss on power failure).  Readers stop at the first record
// that fails its CRC or is truncated: a torn tail from a crash mid-append is
// expected and cleanly ignored.

// maxWALBatch bounds the per-record element counts accepted by the reader,
// so corrupted length fields cannot force huge allocations.
const maxWALBatch = 1 << 24

// WAL record kinds.
const (
	walKindWeights  = 0
	walKindTopology = 1
)

// walRecord is one decoded WAL entry: the batch that produced Epoch.
// Exactly one of Batch and Topo is meaningful, selected by the record's kind
// (a weight record may legitimately carry an empty Batch).
type walRecord struct {
	Epoch uint64
	Batch []graph.WeightUpdate
	Topo  *graph.TopologyUpdate
}

// walFile is the part of *os.File a walWriter uses; tests substitute one
// that fails on demand.
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// walWriter appends records to one WAL segment file.
type walWriter struct {
	f          walFile
	startEpoch uint64
	last       uint64 // epoch of the last appended (or recovered) record
	off        int64  // length of the valid record prefix written so far
	pending    int    // appends since the last fsync
	broken     bool   // a failed append could not be rolled back
}

// createWAL creates a new segment for batches after startEpoch, fsyncing the
// header immediately so an empty segment is recoverable.  O_APPEND matters:
// it keeps the rollback in append correct (after a truncate, the next write
// lands at the new end of file, never leaving a zero-filled hole).
func createWAL(path string, startEpoch uint64) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [20]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], startEpoch)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, startEpoch: startEpoch, last: startEpoch, off: int64(len(hdr))}, nil
}

// openWALForAppend reopens an existing segment, truncating any torn tail so
// new records continue the valid prefix.
func openWALForAppend(path string) (*walWriter, uint64, error) {
	recs, startEpoch, validLen, err := readWAL(path)
	if err != nil {
		return nil, 0, err
	}
	if err := os.Truncate(path, validLen); err != nil {
		return nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	last := startEpoch
	if len(recs) > 0 {
		last = recs[len(recs)-1].Epoch
	}
	return &walWriter{f: f, startEpoch: startEpoch, last: last, off: validLen}, last, nil
}

// recBuf accumulates one record's bytes before the single Write that commits
// it.  Building the full record first keeps torn-tail semantics simple: a
// record is either entirely in the file or (after rollback) entirely absent.
type recBuf []byte

func (b *recBuf) u8(v uint8) { *b = append(*b, v) }
func (b *recBuf) u32(v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	*b = append(*b, tmp[:]...)
}
func (b *recBuf) u64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	*b = append(*b, tmp[:]...)
}
func (b *recBuf) i32(v int32)   { b.u32(uint32(v)) }
func (b *recBuf) f64(v float64) { b.u64(math.Float64bits(v)) }

// append writes one weight record and flushes it to the OS.  syncEvery
// batches fsyncs: 1 syncs every record, n > 1 every n records (the rest ride
// along).  A failed append — its write or its fsync — is rolled back by
// truncating the file to the last valid record, so an append that returns an
// error leaves nothing logged and the caller may log another batch under the
// same epoch.  If even the rollback fails the writer is poisoned: every
// subsequent append errors (silently appending after torn bytes would make
// recovery drop the new records) until SaveSnapshot replaces the segment.
func (w *walWriter) append(epoch uint64, batch []graph.WeightUpdate, syncEvery int) error {
	buf := make(recBuf, 0, 13+len(batch)*12+4)
	buf.u64(epoch)
	buf.u8(walKindWeights)
	buf.u32(uint32(len(batch)))
	for _, u := range batch {
		buf.i32(int32(u.Edge))
		buf.f64(u.NewWeight)
	}
	return w.commit(epoch, buf, syncEvery)
}

// appendTopology writes one topology record; framing and failure handling
// are identical to append.
func (w *walWriter) appendTopology(epoch uint64, up graph.TopologyUpdate, syncEvery int) error {
	buf := make(recBuf, 0, 25+len(up.InsertEdges)*16+len(up.DeleteEdges)*4+len(up.DeleteVertices)*4+4)
	buf.u64(epoch)
	buf.u8(walKindTopology)
	buf.u32(uint32(up.AddVertices))
	buf.u32(uint32(len(up.InsertEdges)))
	for _, e := range up.InsertEdges {
		buf.i32(int32(e.U))
		buf.i32(int32(e.V))
		buf.f64(e.Weight)
	}
	buf.u32(uint32(len(up.DeleteEdges)))
	for _, e := range up.DeleteEdges {
		buf.i32(int32(e))
	}
	buf.u32(uint32(len(up.DeleteVertices)))
	for _, v := range up.DeleteVertices {
		buf.i32(int32(v))
	}
	return w.commit(epoch, buf, syncEvery)
}

// commit appends one framed record (checksummed here) to the segment.
func (w *walWriter) commit(epoch uint64, buf recBuf, syncEvery int) error {
	if w.broken {
		return fmt.Errorf("store: WAL writer unusable after an unrecoverable append failure")
	}
	// Epochs must be contiguous: a skipped epoch would record a permanent gap
	// that recovery rejects wholesale, so refusing here keeps the log's owner
	// honest until a snapshot resynchronises the log.
	if epoch != w.last+1 {
		return fmt.Errorf("store: WAL expects epoch %d next, got %d (a snapshot is needed to resynchronise the log)", w.last+1, epoch)
	}
	buf.u32(crc32.Checksum(buf, crcTable))
	if _, err := w.f.Write(buf); err != nil {
		w.rollback()
		return err
	}
	if syncEvery <= 1 || w.pending+1 >= syncEvery {
		if err := w.f.Sync(); err != nil {
			// The caller treats the batch as refused, so the record must not
			// survive to be replayed.  Records of earlier appends that rode
			// along since the last good fsync stay: their batches were
			// acknowledged.
			w.rollback()
			return err
		}
		w.pending = 0
	} else {
		w.pending++
	}
	w.off += int64(len(buf))
	w.last = epoch
	return nil
}

// rollback truncates the segment back to the last committed record,
// poisoning the writer if it cannot.
func (w *walWriter) rollback() {
	if err := w.f.Truncate(w.off); err != nil {
		w.broken = true
	}
}

// close fsyncs outstanding records and closes the segment.
func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// readWAL decodes a segment file.  It returns the records of the valid
// prefix, the segment's start epoch, and the byte length of that prefix
// (callers truncate to it before appending).  A torn or corrupt tail is not
// an error; a bad header is.
func readWAL(path string) (recs []walRecord, startEpoch uint64, validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	recs, startEpoch, validLen, err = decodeWAL(f, size)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: reading WAL %s: %w", path, err)
	}
	return recs, startEpoch, validLen, nil
}

// decodeWAL is the reader core, split out so the fuzz target can feed it
// arbitrary bytes.  size bounds record counts (pass -1 if unknown) so a
// corrupted length field cannot force a huge allocation.
func decodeWAL(r io.Reader, size int64) (recs []walRecord, startEpoch uint64, validLen int64, err error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("truncated header: %w", err)
	}
	if string(hdr[:8]) != walMagic {
		return nil, 0, 0, fmt.Errorf("not a WAL file (magic %q)", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != FormatVersion {
		return nil, 0, 0, fmt.Errorf("unsupported WAL format version %d (supported: %d)", v, FormatVersion)
	}
	startEpoch = binary.LittleEndian.Uint64(hdr[12:20])
	validLen = int64(len(hdr))
	for {
		rec, n, ok := decodeWALRecord(r, size)
		if !ok {
			return recs, startEpoch, validLen, nil // clean end, torn or corrupt tail
		}
		recs = append(recs, rec)
		validLen += n
	}
}

// walRecordReader reads one record's fields while retaining every byte read,
// so the trailing CRC can be verified over exactly the bytes consumed.
type walRecordReader struct {
	r    io.Reader
	read []byte
	buf  [8]byte
}

func (rr *walRecordReader) bytes(n int) ([]byte, bool) {
	p := rr.buf[:n]
	if _, err := io.ReadFull(rr.r, p); err != nil {
		return nil, false
	}
	rr.read = append(rr.read, p...)
	return p, true
}

func (rr *walRecordReader) u8() (uint8, bool) {
	p, ok := rr.bytes(1)
	if !ok {
		return 0, false
	}
	return p[0], true
}

func (rr *walRecordReader) u32() (uint32, bool) {
	p, ok := rr.bytes(4)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint32(p), true
}

func (rr *walRecordReader) u64() (uint64, bool) {
	p, ok := rr.bytes(8)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p), true
}

func (rr *walRecordReader) i32() (int32, bool) {
	v, ok := rr.u32()
	return int32(v), ok
}

func (rr *walRecordReader) f64() (float64, bool) {
	v, ok := rr.u64()
	return math.Float64frombits(v), ok
}

// countOK bounds a decoded element count: each element occupies at least
// elemSize bytes, so counts implying more bytes than the input holds are
// corrupt (treated as a torn tail by the caller).
func countOK(count uint32, elemSize int64, size int64) bool {
	if count > maxWALBatch {
		return false
	}
	return size < 0 || int64(count) <= size/elemSize
}

// decodeWALRecord reads one record.  ok=false means the reader hit a clean
// EOF, a torn tail, or corruption — indistinguishable by design, all ending
// the valid prefix.  n is the record's byte length including the CRC.
func decodeWALRecord(r io.Reader, size int64) (rec walRecord, n int64, ok bool) {
	rr := &walRecordReader{r: r}
	epoch, ok := rr.u64()
	if !ok {
		return walRecord{}, 0, false
	}
	kind, ok := rr.u8()
	if !ok {
		return walRecord{}, 0, false
	}
	rec.Epoch = epoch
	switch kind {
	case walKindWeights:
		count, ok := rr.u32()
		if !ok || !countOK(count, 12, size) {
			return walRecord{}, 0, false
		}
		batch := make([]graph.WeightUpdate, count)
		for i := range batch {
			e, ok1 := rr.i32()
			w, ok2 := rr.f64()
			if !ok1 || !ok2 {
				return walRecord{}, 0, false
			}
			batch[i] = graph.WeightUpdate{Edge: graph.EdgeID(e), NewWeight: w}
		}
		rec.Batch = batch
	case walKindTopology:
		addV, ok := rr.u32()
		if !ok || !countOK(addV, 1, size) {
			return walRecord{}, 0, false
		}
		up := &graph.TopologyUpdate{AddVertices: int(addV)}
		nIns, ok := rr.u32()
		if !ok || !countOK(nIns, 16, size) {
			return walRecord{}, 0, false
		}
		for i := uint32(0); i < nIns; i++ {
			u, ok1 := rr.i32()
			v, ok2 := rr.i32()
			w, ok3 := rr.f64()
			if !ok1 || !ok2 || !ok3 {
				return walRecord{}, 0, false
			}
			up.InsertEdges = append(up.InsertEdges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v), Weight: w})
		}
		nDelE, ok := rr.u32()
		if !ok || !countOK(nDelE, 4, size) {
			return walRecord{}, 0, false
		}
		for i := uint32(0); i < nDelE; i++ {
			e, ok := rr.i32()
			if !ok {
				return walRecord{}, 0, false
			}
			up.DeleteEdges = append(up.DeleteEdges, graph.EdgeID(e))
		}
		nDelV, ok := rr.u32()
		if !ok || !countOK(nDelV, 4, size) {
			return walRecord{}, 0, false
		}
		for i := uint32(0); i < nDelV; i++ {
			v, ok := rr.i32()
			if !ok {
				return walRecord{}, 0, false
			}
			up.DeleteVertices = append(up.DeleteVertices, graph.VertexID(v))
		}
		rec.Topo = up
	default:
		return walRecord{}, 0, false // unknown kind: treat as torn tail
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return walRecord{}, 0, false
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != crc32.Checksum(rr.read, crcTable) {
		return walRecord{}, 0, false
	}
	return rec, int64(len(rr.read)) + 4, true
}
