package dtlp

import (
	"errors"
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
// Vertex and edge ids are subgraph-local.  Vfrags is immutable by
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
// callback; the slices inside streamed PathRecords are owned by the index
// and must not be retained or modified.
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
			for id, si := range view.gen.subs {
				for i, key := range si.pairKeys {
					for p := si.pairOff[i]; p < si.pairOff[i+1]; p++ {
						rec := PathRecord{
							Pair:     key,
							Vertices: si.pathVerts(p),
							Edges:    si.pathEdges(p),
							Vfrags:   si.vfrags[p],
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
// are streamed in via Add (in any order) and Finish lays them out and derives
// everything that is a pure function of them: bound distances, LBDs, the
// global pair tables, and the skeleton graph with its MBD weights.
//
// The partition's local weights must already reflect the weight snapshot the
// records were exported with (the store loads weights before paths).
type Importer struct {
	part     *partition.Partition
	cfg      Config
	staged   []importStage
	finished bool
}

// importStage holds one subgraph's records in arrival order until Finish
// lays them out.
type importStage struct {
	recs  []stagedPath
	verts []graph.VertexID
	edges []graph.EdgeID
}

// stagedPath is one record; its vertices are verts[vert:vert+n] of its stage
// and its edges edges[edge:edge+n-1].
type stagedPath struct {
	pair         PairKey
	vert, edge   int32
	n            int32
	vfrags, dist float64
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
		part:   part,
		cfg:    cfg,
		staged: make([]importStage, part.NumSubgraphs()),
	}, nil
}

// Add stages one bounding path record for the owning subgraph.  It validates
// the record against the partition topology so that corrupted snapshots
// surface as errors, never as silently wrong indexes.
func (imp *Importer) Add(id partition.SubgraphID, rec PathRecord) error {
	if imp.finished {
		return fmt.Errorf("dtlp: import already finished")
	}
	if int(id) < 0 || int(id) >= len(imp.staged) {
		return fmt.Errorf("dtlp: import record for subgraph %d outside [0,%d)", id, len(imp.staged))
	}
	local := imp.part.Subgraph(id).Local
	directed := local.Directed()
	nv, ne := local.NumVertices(), local.NumEdges()
	if len(rec.Vertices) < 2 || len(rec.Edges) != len(rec.Vertices)-1 {
		return fmt.Errorf("dtlp: import path with %d vertices / %d edges", len(rec.Vertices), len(rec.Edges))
	}
	for _, v := range rec.Vertices {
		if int(v) < 0 || int(v) >= nv {
			return fmt.Errorf("dtlp: import path vertex %d outside [0,%d)", v, nv)
		}
	}
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
	st := &imp.staged[id]
	st.recs = append(st.recs, stagedPath{
		pair:   rec.Pair,
		vert:   int32(len(st.verts)),
		edge:   int32(len(st.edges)),
		n:      int32(len(rec.Vertices)),
		vfrags: rec.Vfrags,
		dist:   rec.Dist,
	})
	st.verts = append(st.verts, rec.Vertices...)
	st.edges = append(st.edges, rec.Edges...)
	return nil
}

// layout builds subgraph id's index from its staged records: pairs in sorted
// order, each pair's paths in arrival order.
func (imp *Importer) layout(id partition.SubgraphID) (*SubgraphIndex, error) {
	st := &imp.staged[id]
	slices.SortStableFunc(st.recs, func(x, y stagedPath) int { return comparePairKeys(x.pair, y.pair) })
	numPairs := 0
	for i, r := range st.recs {
		if i == 0 || r.pair != st.recs[i-1].pair {
			numPairs++
		}
	}
	si := newSubgraphIndex(imp.part.Subgraph(id), numPairs, len(st.recs), len(st.verts))
	run := 0
	for i, r := range st.recs {
		if i == 0 || r.pair != st.recs[i-1].pair {
			si.addPair(r.pair)
			run = 0
		}
		// Construction keeps every enumerated path among the first ξ distinct
		// vfrag lengths, so MaxEnumerate (not ξ) bounds the per-pair path count.
		if run++; run > imp.cfg.MaxEnumerate {
			return nil, fmt.Errorf("dtlp: import pair (%d,%d) has more than %d paths", r.pair.A, r.pair.B, imp.cfg.MaxEnumerate)
		}
		si.addPath(st.verts[r.vert:r.vert+r.n], st.edges[r.edge:r.edge+r.n-1], r.vfrags, r.dist)
	}
	si.finish()
	return si, nil
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
	g := &generation{part: imp.part, subs: make([]*SubgraphIndex, len(imp.staged))}
	errs := make([]error, len(g.subs))
	fanout.Do(len(g.subs), runtime.GOMAXPROCS(0), func(i int) {
		g.subs[i], errs[i] = imp.layout(partition.SubgraphID(i))
		imp.staged[i] = importStage{}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := g.finishStructure(); err != nil {
		return nil, err
	}
	x := &Index{cfg: imp.cfg}
	x.gen.Store(g)
	x.epochBase = epoch
	x.publishView()
	return x, nil
}
