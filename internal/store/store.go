// Package store is the durable-state subsystem: index snapshots plus an
// epoch write-ahead log (WAL), making restart cost proportional to
// updates-since-snapshot instead of graph size.
//
// A Store manages one data directory containing at most one generation of
// durable state:
//
//	snap-<epoch>.ksp  — a checksummed binary snapshot of the graph topology,
//	                    the partition assignment, the DTLP index skeleton
//	                    (bounding paths, EP-Index content, skeleton graph
//	                    derivation inputs) and one weight snapshot, all
//	                    frozen at <epoch>.
//	wal-<epoch>.log   — the write-ahead log of update batches applied after
//	                    <epoch>: the batch that produced epoch E is stored
//	                    under record epoch E.  Weight batches and topology
//	                    batches (edge/vertex inserts and deletes) interleave
//	                    in epoch order.
//
// serve.Server appends each batch through AppendBatch before applying it
// (the batch is durable before it is visible) and periodically calls
// SaveSnapshot, which rotates the WAL and deletes the previous generation.
// An append that returns an error leaves nothing logged: a failed write or
// fsync is truncated away, so the caller may log another batch under the
// same epoch.  Where that rollback itself fails, or the caller could not
// apply a batch it had logged, SaveSnapshot of the unchanged index
// resynchronises the log: it replaces the segment and drops the record.
// Recover loads the newest valid snapshot, replays the WAL in epoch order,
// and returns an index whose epoch counter continues exactly where the
// crashed process stopped — queries against the recovered index are
// indistinguishable from queries against a process that never crashed.
//
// Replay refuses a weight record with a NaN or infinite weight, exactly as
// the index refuses such a batch; the error names the record's epoch.
// Writers that checked only for negative weights could log one, and a data
// directory holding such a record needs a cold start (rebuild the index and
// write a fresh snapshot).
//
// # Frames
//
// Both file formats follow one frame rule: a frame is its bytes followed by
// the u32 CRC-32C of those bytes.  A snapshot file is a single frame; a WAL
// segment is a header outside any frame, then one frame per record.  One
// encoder and one decoder (codec.go) read and write every field of both.
//
// # Format versioning
//
// Every snapshot and WAL file records FormatVersion.  The policy is strict:
// any layout change — even a field addition — bumps the version, and readers
// accept exactly the versions they were built for, failing loudly otherwise
// (the fixed-width format has no tag/length framing to skip unknown fields).
// A version bump therefore means a cold start: rebuild the index from the
// dataset and write a fresh snapshot.  TestFormatGolden pins both layouts to
// files in testdata, so a layout change cannot slip in without one.  Snapshots are portable across
// machines of any endianness (the encoding is explicitly little-endian) but
// are not a general interchange format.
package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
)

// Options configures a Store.
type Options struct {
	// SyncEvery batches WAL fsyncs: 1 (and 0, the default) fsyncs after
	// every appended batch; n > 1 fsyncs every n-th batch, trading up to
	// n-1 batches of power-failure durability for append throughput.
	// Records are always flushed to the OS, so a process crash alone loses
	// nothing.
	SyncEvery int
}

// Store manages the durable state in one data directory.  All methods are
// safe for concurrent use; appends and snapshots are serialized internally.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	wal    *walWriter
	closed bool
}

// Open creates (if needed) the data directory and returns a Store over it.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	return &Store{dir: dir, opts: opts}, nil
}

// Dir returns the data directory the store manages.
func (s *Store) Dir() string { return s.dir }

// snapPathIn and walPathIn are the single source of the on-disk naming
// scheme, shared by the writers and the recovery scanner.
func snapPathIn(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.ksp", epoch))
}

func walPathIn(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", epoch))
}

func (s *Store) snapPath(epoch uint64) string { return snapPathIn(s.dir, epoch) }
func (s *Store) walPath(epoch uint64) string  { return walPathIn(s.dir, epoch) }

// listGeneration scans the directory for snapshot and WAL files, returning
// their epochs sorted ascending.
func listGeneration(dir string) (snaps, wals []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			return 0, false
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		v, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if v, ok := parse(e.Name(), "snap-", ".ksp"); ok {
			snaps = append(snaps, v)
		}
		if v, ok := parse(e.Name(), "wal-", ".log"); ok {
			wals = append(wals, v)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, nil
}

// SaveSnapshot writes a snapshot of the index at its current epoch, rotates
// the WAL to start at that epoch, and deletes the previous generation's
// files.  It returns the snapshot epoch.  The write is atomic: the snapshot
// is streamed to a temporary file, fsynced, and renamed into place.
func (s *Store) SaveSnapshot(x *dtlp.Index) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: store is closed")
	}
	tmp, err := os.CreateTemp(s.dir, "snap-*.tmp")
	if err != nil {
		return 0, err
	}
	tmpName := tmp.Name()
	epoch, err := encodeSnapshot(tmp, x)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: writing snapshot: %w", err)
	}
	final := s.snapPath(epoch)
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return 0, err
	}
	syncDir(s.dir)

	// Rotate the WAL so it starts at the snapshot epoch, then drop every
	// other file: the snapshot supersedes the whole directory.  The active
	// segment is kept only when it already starts at the snapshot epoch and
	// holds nothing past it; a poisoned segment, or one holding a record for
	// a batch the index never applied, is replaced — this is how the log's
	// owner resynchronises it after a failed append.  Reusing any other
	// existing wal-<epoch> file here would be wrong: it can only be left over
	// from an earlier run (possibly one whose epoch counter restarted from 0
	// in the same directory), and its records must not survive into the new
	// generation.
	if w := s.wal; w == nil || w.startEpoch != epoch || w.last != epoch || w.broken {
		if w != nil {
			// The snapshot is durable, so the segment is superseded: an
			// error closing it (a poisoned file's fsync) loses nothing.
			_ = w.close()
			s.wal = nil
		}
		path := s.walPath(epoch)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return epoch, err
		}
		w, err := createWAL(path, epoch)
		if err != nil {
			return epoch, err
		}
		s.wal = w
		syncDir(s.dir)
	}
	s.compactLocked(epoch)
	return epoch, nil
}

// compactLocked removes every snapshot and WAL segment except keepEpoch's.
// Deleting higher epochs too (not just older ones) matters when a data
// directory is reused across cold starts: a fresh epoch-0 snapshot must not
// leave a stale higher-epoch generation behind for Recover to prefer.
func (s *Store) compactLocked(keepEpoch uint64) {
	snaps, wals, err := listGeneration(s.dir)
	if err != nil {
		return // compaction is best-effort; recovery tolerates extra files
	}
	for _, e := range snaps {
		if e != keepEpoch {
			os.Remove(s.snapPath(e))
		}
	}
	for _, e := range wals {
		if e != keepEpoch {
			os.Remove(s.walPath(e))
		}
	}
	// Also sweep snap-*.tmp files orphaned by a crash between CreateTemp and
	// the rename; s.mu is held, so no live temporary can be caught here.
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	// Make the removals durable: an older segment that outlived a crash
	// could hold a record past the snapshot epoch for a batch that was never
	// applied, which recovery would replay.
	syncDir(s.dir)
}

// AppendBatch logs one weight-update batch under the epoch it publishes
// (dtlp.Index.ApplyUpdates).  The first append after Open
// attaches to the newest existing WAL segment (truncating any torn tail) or
// creates one starting at epoch-1.  Epochs must be appended in increasing
// order.
func (s *Store) AppendBatch(epoch uint64, batch []graph.WeightUpdate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureWALLocked(epoch); err != nil {
		return err
	}
	return s.wal.append(epoch, batch, s.opts.SyncEvery)
}

// AppendTopology logs one topology batch under the epoch it publishes
// (dtlp.Index.ApplyTopology).  Topology records interleave with weight
// records in the same WAL, in epoch order; replay re-derives the same edge
// ids and partition routing deterministically, so a recovered process is
// bit-identical to the crashed one.
func (s *Store) AppendTopology(epoch uint64, up graph.TopologyUpdate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureWALLocked(epoch); err != nil {
		return err
	}
	return s.wal.appendTopology(epoch, up, s.opts.SyncEvery)
}

// ensureWALLocked attaches to (or creates) the active WAL segment before the
// first append.  Callers hold s.mu.
func (s *Store) ensureWALLocked(epoch uint64) error {
	if s.closed {
		return fmt.Errorf("store: store is closed")
	}
	if s.wal != nil {
		return nil
	}
	_, wals, err := listGeneration(s.dir)
	if err != nil {
		return err
	}
	if len(wals) > 0 {
		path := s.walPath(wals[len(wals)-1])
		w, last, err := openWALForAppend(path)
		if err != nil {
			// An unreadable header means the segment died in the crash
			// window before its header became durable; it holds no
			// recoverable records, so recreate it rather than failing
			// every append forever.
			if rerr := os.Remove(path); rerr != nil {
				return err
			}
			if w, err = createWAL(path, wals[len(wals)-1]); err != nil {
				return err
			}
			last = wals[len(wals)-1]
		}
		if last >= epoch {
			w.close()
			return fmt.Errorf("store: WAL already holds epoch %d, cannot append epoch %d", last, epoch)
		}
		s.wal = w
		return nil
	}
	if epoch == 0 {
		return fmt.Errorf("store: cannot log a batch for epoch 0 (epoch 0 is construction time)")
	}
	w, err := createWAL(s.walPath(epoch-1), epoch-1)
	if err != nil {
		return err
	}
	s.wal = w
	syncDir(s.dir)
	return nil
}

// Sync forces an fsync of the active WAL segment, flushing any batches still
// riding an Options.SyncEvery window.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil || s.wal.f == nil {
		return nil
	}
	return s.wal.f.Sync()
}

// Close fsyncs and closes the active WAL segment.  The store cannot be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		err := s.wal.close()
		s.wal = nil
		return err
	}
	return nil
}

// Recovered is the result of a successful recovery: the reconstructed graph,
// partition, and index, ready to serve at the epoch the crashed process last
// published.  Its index retains views for the epochs the crashed process's
// index did (see dtlp.Index.ViewAt).
type Recovered struct {
	Graph     *graph.Graph
	Partition *partition.Partition
	Index     *dtlp.Index
	// SnapshotEpoch is the epoch of the snapshot the recovery started from.
	SnapshotEpoch uint64
	// Epoch is the index's current epoch after WAL replay.
	Epoch uint64
	// ReplayedBatches counts the WAL records replayed on top of the
	// snapshot, one per record, however many a call applied at once.
	ReplayedBatches int
}

// Recover loads the newest valid snapshot in the data directory, replays the
// WAL on top of it, and returns the reconstructed state.  The recovered
// index's epoch counter continues where the previous process stopped, and
// its weights, bounding-path distances and skeleton weights, at the current
// epoch and at every epoch it retains, are bit-identical to that process's
// published state (the differential recovery tests assert this).
//
// Recovery never enumerates bounding paths — restart cost is the snapshot
// read plus updates-since-snapshot.  Consecutive weight records replay as
// one run through dtlp.Index.ReplayUpdates: every update's distance deltas,
// in log order, but the bound refresh once for the run's older records and
// once per record only for the epochs the index retains.  A topology record
// ends a run and replays on its own.  A record the index refuses fails the
// recovery with an error naming its epoch.
func (s *Store) Recover() (*Recovered, error) {
	return recoverState(s.dir, false)
}

// RecoverTopology is the worker-side recovery: it loads the graph and
// partition (with WAL-replayed weights) from a data directory without
// assembling the DTLP index.  Workers hosting subgraphs need exactly this
// much state; only the master needs the full index.  Each run of
// consecutive weight records is one graph and one partition write.
func RecoverTopology(dir string) (*graph.Graph, *partition.Partition, uint64, error) {
	rec, err := recoverState(dir, true)
	if err != nil {
		return nil, nil, 0, err
	}
	return rec.Graph, rec.Partition, rec.Epoch, nil
}

// recoverState is the shared recovery core.  With topologyOnly set, WAL batches
// are applied to the graph and partition but no index is assembled.
func recoverState(dir string, topologyOnly bool) (*Recovered, error) {
	snaps, wals, err := listGeneration(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("store: no snapshot in %s", dir)
	}
	// Newest snapshot first; fall back to older generations if the newest is
	// corrupt (e.g. a crash mid-rename on a filesystem without atomic rename).
	var sc *snapshotContents
	var loadErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		sc, loadErr = loadSnapshotFile(snapPathIn(dir, snaps[i]), topologyOnly)
		if loadErr == nil {
			break
		}
		sc = nil
	}
	if sc == nil {
		return nil, fmt.Errorf("store: no loadable snapshot in %s: %w", dir, loadErr)
	}
	rec := &Recovered{
		Graph:         sc.graph,
		Partition:     sc.partition,
		Index:         sc.index,
		SnapshotEpoch: sc.epoch,
		Epoch:         sc.epoch,
	}
	// Replay WAL segments in start-epoch order, skipping records the
	// snapshot already covers.  Consecutive weight records collect into a
	// run, which is replayed in one call; a topology record ends the run and
	// is replayed on its own.  run holds the weight batches of epochs
	// rec.Epoch-len(run)+1 .. rec.Epoch.
	var run [][]graph.WeightUpdate
	flush := func() error {
		if err := rec.replayRun(run); err != nil {
			return fmt.Errorf("store: replaying epochs %d-%d: %w", rec.Epoch-uint64(len(run))+1, rec.Epoch, err)
		}
		run = run[:0]
		return nil
	}
	for _, start := range wals {
		recs, _, _, err := readWAL(walPathIn(dir, start))
		if err != nil {
			// A segment with an unreadable header can hold no durable records:
			// createWAL fsyncs the header before any append is possible, so
			// this is the crash window between file creation and header
			// durability.  Treat it as empty rather than failing a recovery
			// whose snapshot is intact (torn tails inside a readable segment
			// are already handled by readWAL itself).
			continue
		}
		for _, r := range recs {
			if r.Epoch <= rec.Epoch {
				continue
			}
			if r.Epoch != rec.Epoch+1 {
				return nil, fmt.Errorf("store: WAL gap: have epoch %d, next record is epoch %d", rec.Epoch, r.Epoch)
			}
			for _, u := range r.Batch {
				if math.IsNaN(u.NewWeight) || math.IsInf(u.NewWeight, 0) {
					return nil, fmt.Errorf("store: WAL record for epoch %d sets edge %d to weight %g, which the index refuses; the data directory needs a cold start", r.Epoch, u.Edge, u.NewWeight)
				}
			}
			if r.Topo == nil {
				run = append(run, r.Batch)
			} else {
				if err := flush(); err != nil {
					return nil, err
				}
				if err := rec.replayTopology(*r.Topo, r.Epoch); err != nil {
					return nil, fmt.Errorf("store: replaying epoch %d: %w", r.Epoch, err)
				}
			}
			rec.Epoch = r.Epoch
			rec.ReplayedBatches++
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return rec, nil
}

// replayRun applies a run of consecutive weight records, the last of which
// is rec.Epoch, to the recovered state.  The index replays the run through
// dtlp.Index.ReplayUpdates; a recovery without an index writes the graph and
// the partition once for the whole run, which leaves the weights one write
// per record would, since the last write of an edge wins.
func (rec *Recovered) replayRun(run [][]graph.WeightUpdate) error {
	if len(run) == 0 {
		return nil
	}
	if rec.Index == nil {
		all := slices.Concat(run...)
		if err := rec.Graph.ApplyUpdates(all); err != nil {
			return err
		}
		_, err := rec.Partition.ApplyUpdates(all)
		return err
	}
	epoch, err := rec.Index.ReplayUpdates(run)
	if err == nil && epoch != rec.Epoch {
		err = fmt.Errorf("replay produced epoch %d for WAL record %d", epoch, rec.Epoch)
	}
	return err
}

// replayTopology applies one topology record, which must publish epoch, to
// the recovered state: the index derives the new graph and partition
// copy-on-write, and a recovery without an index derives them directly.
func (rec *Recovered) replayTopology(up graph.TopologyUpdate, epoch uint64) error {
	if rec.Index == nil {
		ng, inserted, deleted, err := rec.Graph.ApplyTopology(up)
		if err != nil {
			return err
		}
		np, _, err := rec.Partition.ApplyTopology(ng, up, inserted, deleted)
		if err != nil {
			return err
		}
		rec.Graph, rec.Partition = ng, np
		return nil
	}
	if _, err := rec.Index.ApplyTopology(up); err != nil {
		return err
	}
	if got := rec.Index.CurrentView().Epoch(); got != epoch {
		return fmt.Errorf("replay produced epoch %d for WAL record %d", got, epoch)
	}
	rec.Partition = rec.Index.Partition()
	rec.Graph = rec.Partition.Parent()
	return nil
}

// loadSnapshotFile decodes one snapshot file.
func loadSnapshotFile(path string, topologyOnly bool) (*snapshotContents, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	sc, err := decodeSnapshot(f, fi.Size(), topologyOnly)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	return sc, nil
}

// syncDir fsyncs a directory so renames and creations are durable.  Best
// effort: some filesystems do not support directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
