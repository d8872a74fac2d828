package dtlp

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"kspdg/internal/fanout"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
)

// subgraphBuilds counts buildSubgraphIndex invocations process-wide.  The
// warm-start path (Importer) never enumerates bounding paths, so recovery
// tests assert this counter stays flat across a snapshot load.
var subgraphBuilds atomic.Int64

// SubgraphBuildCount returns the number of subgraph index constructions
// (bounding path enumerations) performed by this process.  Import never
// increases it; Build increases it once per subgraph, and ApplyTopology once
// per touched subgraph — so recovery stays enumeration-free only up to the
// first topology record in the WAL, whose replay re-runs the same
// incremental rebuilds the original apply did.
func SubgraphBuildCount() int64 { return subgraphBuilds.Load() }

// PathRecord is the serializable form of one bounding path: everything the
// Importer needs to reinstall the path without re-enumerating candidates.
// Vertex and edge ids are subgraph-local.  The index stores neither: export
// walks both out of the EP-Index, and import checks Vertices against Edges,
// builds the EP-Index from Edges and drops both.  Vfrags is immutable by
// construction; Dist is the path's actual distance at export time, carried
// verbatim so a recovered index reproduces the exporting index bit for bit
// (recomputing it from weights could differ in the last ulp from the
// incrementally maintained value).
type PathRecord struct {
	Pair     PairKey
	Vertices []graph.VertexID
	Edges    []graph.EdgeID
	Vfrags   float64
	Dist     float64
}

// ExportedState is a consistent description of an index passed to the
// callback of ExportState.  It is only valid for the duration of the
// callback.  The stream walks each record into buffers it reuses for the
// next, so a PathRecord's slices must not be retained.
type ExportedState struct {
	// Epoch is the most recently published epoch; Dist values and View
	// weights are exactly the state of that epoch.
	Epoch uint64
	// View is the index view published at Epoch.
	View *IndexView
	// Paths streams every bounding path in deterministic order: subgraphs in
	// id order, pairs sorted by (A, B), paths in construction order.
	Paths func(visit func(sub partition.SubgraphID, rec PathRecord) error) error
}

// ExportState locks out the writer and runs fn with a consistent exportable
// state of the index: the current epoch, its weight view, and a deterministic
// stream of all bounding paths.  It is the producer side of the snapshot
// subsystem (internal/store).
func (x *Index) ExportState(fn func(st ExportedState) error) error {
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	view := x.CurrentView()
	st := ExportedState{
		Epoch: view.Epoch(),
		View:  view,
		Paths: func(visit func(sub partition.SubgraphID, rec PathRecord) error) error {
			verts, edges := []graph.VertexID(nil), []graph.EdgeID(nil)
			for id, si := range view.gen.subs {
				pos := slices.Clone(si.epOff[:len(si.epOff)-1])
				for i, key := range si.pairKeys {
					for p := si.pairOff[i]; p < si.pairOff[i+1]; p++ {
						verts, edges = si.walkPath(verts[:0], edges[:0], p, key, pos)
						rec := PathRecord{
							Pair:     key,
							Vertices: verts,
							Edges:    edges,
							Vfrags:   si.vfragVals[si.vfragIdx[p]],
							Dist:     si.dist[p],
						}
						if err := visit(partition.SubgraphID(id), rec); err != nil {
							return err
						}
					}
				}
			}
			return nil
		},
	}
	return fn(st)
}

// Importer reassembles an Index from previously exported path records
// without enumerating bounding paths — the expensive step of Build.  Records
// are streamed in via Add in the order ExportedState.Paths streams them, and
// Add appends each straight into its subgraph's flat arrays; Finish derives
// everything that is a pure function of them: bound distances, LBDs, the
// global pair tables, and the skeleton graph with its MBD weights.
//
// The partition's local weights must already reflect the weight snapshot the
// records were exported with (the store loads weights before paths).
type Importer struct {
	part     *partition.Partition
	cfg      Config
	subs     []*SubgraphIndex // nil for a subgraph no record has reached yet
	last     partition.SubgraphID
	run      int     // paths of the last pair so far
	seen     []int32 // per local vertex, the last record (see Add) it was on
	finished bool
}

// NewImporter prepares an import over the given partition.  cfg must carry
// the same Xi the exporting index was built with (it bounds per-pair path
// counts during validation).
func NewImporter(part *partition.Partition, cfg Config) (*Importer, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Importer{
		part: part,
		cfg:  cfg,
		subs: make([]*SubgraphIndex, part.NumSubgraphs()),
	}, nil
}

// Add appends one bounding path record to the owning subgraph's index.
// Records must come in export order: subgraphs in id order, pairs sorted by
// (A, B) within a subgraph, and a pair's paths in a row.  It validates the
// record against the partition topology and that order, so that corrupted
// snapshots surface as errors, never as silently wrong indexes.  It keeps no
// reference to rec's slices, and stores the edges but not the vertices.
func (imp *Importer) Add(id partition.SubgraphID, rec PathRecord) error {
	if imp.finished {
		return fmt.Errorf("dtlp: import already finished")
	}
	if int(id) < 0 || int(id) >= len(imp.subs) {
		return fmt.Errorf("dtlp: import record for subgraph %d outside [0,%d)", id, len(imp.subs))
	}
	if id < imp.last {
		return fmt.Errorf("dtlp: import record for subgraph %d after subgraph %d", id, imp.last)
	}
	local := imp.part.Subgraph(id).Local
	directed := local.Directed()
	ne := local.NumEdges()
	if len(rec.Vertices) < 2 || len(rec.Edges) != len(rec.Vertices)-1 {
		return fmt.Errorf("dtlp: import path with %d vertices / %d edges", len(rec.Vertices), len(rec.Edges))
	}
	// Each vertex is an end of an edge, so checking the edges checks them.
	for i, e := range rec.Edges {
		if int(e) < 0 || int(e) >= ne {
			return fmt.Errorf("dtlp: import path edge %d outside [0,%d)", e, ne)
		}
		ends := local.EdgeEndpoints(e)
		u, v := rec.Vertices[i], rec.Vertices[i+1]
		if !(ends.U == u && ends.V == v) && (directed || !(ends.U == v && ends.V == u)) {
			return fmt.Errorf("dtlp: import path edge %d does not connect vertices %d-%d", e, u, v)
		}
	}
	if MakePairKey(rec.Pair.A, rec.Pair.B, directed) != rec.Pair {
		return fmt.Errorf("dtlp: import pair (%d,%d) not normalised", rec.Pair.A, rec.Pair.B)
	}
	if rec.Vertices[0] != rec.Pair.A || rec.Vertices[len(rec.Vertices)-1] != rec.Pair.B {
		return fmt.Errorf("dtlp: import pair (%d,%d) does not match path endpoints", rec.Pair.A, rec.Pair.B)
	}
	if math.IsNaN(rec.Vfrags) || math.IsInf(rec.Vfrags, 0) || rec.Vfrags <= 0 {
		return fmt.Errorf("dtlp: import path with invalid vfrag count %g", rec.Vfrags)
	}
	if math.IsNaN(rec.Dist) || math.IsInf(rec.Dist, 0) || rec.Dist < 0 {
		return fmt.Errorf("dtlp: import path with invalid distance %g", rec.Dist)
	}
	si := imp.subs[id]
	if si == nil {
		// Size the arrays like the previous subgraph's: the partition makes
		// subgraphs of a similar size, so most never grow.
		numPairs, numPaths, numEdges := 0, 0, 0
		if prev := imp.subs[imp.last]; prev != nil {
			numPairs, numPaths, numEdges = len(prev.pairKeys), len(prev.dist), len(prev.edges)
		}
		si = newSubgraphIndex(imp.part.Subgraph(id), numPairs, numPaths, numEdges)
		imp.subs[id], imp.last, imp.seen = si, id, make([]int32, local.NumVertices())
	}
	// walkPath needs the path simple.  Records stamp seen with 1 + their id.
	for _, v := range rec.Vertices {
		if imp.seen[v] == int32(len(si.dist)+1) {
			return fmt.Errorf("dtlp: import path %v repeats vertex %d", rec.Vertices, v)
		}
		imp.seen[v] = int32(len(si.dist) + 1)
	}
	c := 1 // the record's pair against the subgraph's last one
	if n := len(si.pairKeys); n > 0 {
		prev := si.pairKeys[n-1]
		if c = comparePairKeys(rec.Pair, prev); c < 0 {
			return fmt.Errorf("dtlp: import pair (%d,%d) of subgraph %d after pair (%d,%d)", rec.Pair.A, rec.Pair.B, id, prev.A, prev.B)
		}
	}
	if c > 0 {
		si.addPair(rec.Pair)
		imp.run = 0
	}
	// Construction keeps every enumerated path among the first ξ distinct
	// vfrag lengths, so MaxEnumerate (not ξ) bounds the per-pair path count.
	if imp.run++; imp.run > imp.cfg.MaxEnumerate {
		return fmt.Errorf("dtlp: import pair (%d,%d) has more than %d paths", rec.Pair.A, rec.Pair.B, imp.cfg.MaxEnumerate)
	}
	si.addPath(rec.Edges, rec.Vfrags, rec.Dist)
	return nil
}

// Finish derives the remaining index state (bounds, LBDs, skeleton) and
// publishes the initial view at the given epoch, so a recovered index
// continues the epoch sequence of the process that exported it.  The
// Importer must not be used afterwards.
func (imp *Importer) Finish(epoch uint64) (*Index, error) {
	if imp.finished {
		return nil, fmt.Errorf("dtlp: import already finished")
	}
	imp.finished = true
	g := &generation{part: imp.part, subs: imp.subs}
	imp.subs = nil
	fanout.Do(len(g.subs), runtime.GOMAXPROCS(0), func(i int) {
		si := g.subs[i]
		if si == nil {
			si = newSubgraphIndex(imp.part.Subgraph(partition.SubgraphID(i)), 0, 0, 0)
			g.subs[i] = si
		}
		si.finish()
		// Add sized the arrays by guess and let append grow them: copy each
		// grown one to its length, so a recovered index holds no more memory
		// than a built one.
		si.pairKeys, si.pairOff, si.dist = exact(si.pairKeys), exact(si.pairOff), exact(si.dist)
	})
	if err := g.finishStructure(); err != nil {
		return nil, err
	}
	x := &Index{cfg: imp.cfg}
	x.gen.Store(g)
	x.publishView(epoch)
	return x, nil
}

// exact returns s in an array of exactly its length, s itself if it is one.
func exact[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	t := make(S, len(s)) // slices.Clone would round the capacity up
	copy(t, s)
	return t
}
