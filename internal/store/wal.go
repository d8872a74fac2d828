package store

import (
	"fmt"
	"io"
	"os"

	"kspdg/internal/graph"
)

// WAL binary layout (FormatVersion 2), all integers little-endian:
//
//	header:  magic "KSPDWAL1" | u32 version | u64 startEpoch
//	record:  u64 epoch | u8 kind | payload
//	         | u32 CRC-32C of the record bytes above (one frame, see codec.go)
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
	buf        []byte // record bytes, reused across appends
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
	hdr := walHeader(startEpoch)
	if _, err := f.Write(hdr); err != nil {
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

// append writes one weight record and flushes it to the OS.  syncEvery
// batches fsyncs: 1 syncs every record, n > 1 every n records (the rest ride
// along).  A failed append — its write or its fsync — is rolled back by
// truncating the file to the last valid record, so an append that returns an
// error leaves nothing logged and the caller may log another batch under the
// same epoch.  If even the rollback fails the writer is poisoned: every
// subsequent append errors (silently appending after torn bytes would make
// recovery drop the new records) until SaveSnapshot replaces the segment.
func (w *walWriter) append(epoch uint64, batch []graph.WeightUpdate, syncEvery int) error {
	return w.commit(walRecord{Epoch: epoch, Batch: batch}, syncEvery)
}

// appendTopology writes one topology record; framing and failure handling
// are identical to append.
func (w *walWriter) appendTopology(epoch uint64, up graph.TopologyUpdate, syncEvery int) error {
	return w.commit(walRecord{Epoch: epoch, Topo: &up}, syncEvery)
}

// commit appends one record to the segment in a single Write, so a record is
// either entirely in the file or (after rollback) entirely absent.
func (w *walWriter) commit(rec walRecord, syncEvery int) error {
	if w.broken {
		return fmt.Errorf("store: WAL writer unusable after an unrecoverable append failure")
	}
	// Epochs must be contiguous: a skipped epoch would record a permanent gap
	// that recovery rejects wholesale, so refusing here keeps the log's owner
	// honest until a snapshot resynchronises the log.
	if rec.Epoch != w.last+1 {
		return fmt.Errorf("store: WAL expects epoch %d next, got %d (a snapshot is needed to resynchronise the log)", w.last+1, rec.Epoch)
	}
	e := enc{buf: w.buf[:0]}
	e.walRecord(rec)
	w.buf = e.buf
	if _, err := w.f.Write(e.buf); err != nil {
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
	w.off += int64(len(e.buf))
	w.last = rec.Epoch
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
	fi, err := f.Stat()
	if err == nil {
		recs, startEpoch, validLen, err = decodeWAL(f, fi.Size())
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: reading WAL %s: %w", path, err)
	}
	return recs, startEpoch, validLen, nil
}

// walHeader encodes a segment header, which lies outside every frame.
func walHeader(startEpoch uint64) []byte {
	var e enc
	e.str(walMagic)
	e.u32(FormatVersion)
	e.u64(startEpoch)
	return e.buf
}

// decodeWAL is the reader core, split out so the fuzz target can feed it
// arbitrary bytes; size is the input length.  The valid prefix ends at the
// first record that is truncated, fails its checksum or is malformed — a
// clean end, a torn tail and corruption are indistinguishable by design.
func decodeWAL(r io.Reader, size int64) (recs []walRecord, startEpoch uint64, validLen int64, err error) {
	d := newDec(r, size)
	if magic := d.str(len(walMagic)); magic != walMagic {
		d.failf("not a WAL file (magic %q)", magic)
	}
	if v := d.u32(); v != FormatVersion {
		d.failf("unsupported WAL format version %d (supported: %d)", v, FormatVersion)
	}
	startEpoch = d.u64()
	if d.err != nil {
		return nil, 0, 0, d.err
	}
	d.crc = 0 // the first frame starts after the header
	for {
		validLen = d.n
		rec := d.walRecord()
		if d.err != nil {
			return recs, startEpoch, validLen, nil
		}
		recs = append(recs, rec)
	}
}

// walRecord encodes one record as a frame.
func (e *enc) walRecord(r walRecord) {
	e.u64(r.Epoch)
	if r.Topo != nil {
		e.u8(walKindTopology)
		e.topology(*r.Topo)
	} else {
		e.u8(walKindWeights)
		e.weights(r.Batch)
	}
	e.frame()
}

func (d *dec) walRecord() walRecord {
	rec := walRecord{Epoch: d.u64()}
	switch kind := d.u8(); kind {
	case walKindWeights:
		rec.Batch = d.weights()
	case walKindTopology:
		rec.Topo = d.topology()
	default:
		d.failf("unknown WAL record kind %d", kind)
	}
	d.frame()
	return rec
}
