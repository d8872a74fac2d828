// Package dtlp implements the Distributed Two-Level Path index (DTLP) from
// Section 3 of the paper.
//
// The first level indexes, for every pair of boundary vertices inside a
// subgraph, a set of at most ξ bounding paths: the paths with the fewest
// virtual fragments (vfrags).  An edge with initial weight w0 consists of w0
// vfrags, each with unit weight w/w0 under the current weight w.  Bounding
// paths never change as weights evolve, which is what makes the index cheap
// to maintain; only their distances and bound distances are refreshed.  From
// the bounding paths the index derives, per subgraph, a lower bound distance
// (LBD) for each boundary pair (Theorem 1), and across subgraphs the minimum
// lower bound distance (MBD).
//
// The second level is the skeleton graph Gλ whose vertices are all boundary
// vertices and whose edge weights are the MBDs.  Gλ supplies the reference
// paths that drive the KSP-DG search.
//
// An Edge-Path index (EP-Index) maps every subgraph edge to the bounding
// paths crossing it so that a weight change only touches the affected paths
// (Algorithm 2).  The optional MFP-tree compression of the EP-Index lives in
// package mfptree.
//
// # Snapshot / epoch model
//
// The index supports snapshot-isolated concurrent querying through immutable
// epoch views (IndexView).  ApplyUpdates is the single writer: it mutates the
// subgraph weights, bounding path distances and skeleton weights under an
// internal write lock and then atomically publishes a new IndexView — a
// copy-on-write bundle of the skeleton weight snapshot plus one weight
// snapshot per subgraph, sharing the snapshots of all subgraphs the batch did
// not touch with the previous epoch.  Queries obtain a view via CurrentView
// (or resolve a specific epoch with ViewAt) and see a single consistent set
// of weights for their whole lifetime, no matter how many update batches are
// applied concurrently.  Bounding paths themselves are immutable by design,
// which is what makes copy-on-write publication cheap: only weight arrays are
// ever copied, never index structure.
package dtlp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"kspdg/internal/fanout"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
)

// Config controls DTLP construction.
type Config struct {
	// Xi (ξ) is the maximum number of bounding paths kept per boundary pair.
	// It must be at least 1.  Larger values tighten the lower bounds (fewer
	// KSP-DG iterations) at higher construction and maintenance cost.
	Xi int
	// MaxEnumerate caps the number of candidate paths enumerated per pair
	// while searching for Xi distinct vfrag counts.  Zero means 3*Xi+2.
	MaxEnumerate int
	// Parallelism is the number of goroutines used to index subgraphs during
	// construction.  Zero means GOMAXPROCS.
	Parallelism int
}

func (c Config) withDefaults() (Config, error) {
	if c.Xi < 1 {
		return c, fmt.Errorf("dtlp: Xi must be >= 1, got %d", c.Xi)
	}
	if c.MaxEnumerate <= 0 {
		c.MaxEnumerate = 3*c.Xi + 2
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// PairKey identifies an ordered pair of global boundary vertices.  For
// undirected graphs the pair is normalised so that A <= B.
type PairKey struct {
	A, B graph.VertexID
}

// MakePairKey builds a PairKey, normalising the order for undirected graphs.
func MakePairKey(a, b graph.VertexID, directed bool) PairKey {
	if !directed && a > b {
		a, b = b, a
	}
	return PairKey{A: a, B: b}
}

// generation bundles the structural state of the index that a topology
// mutation replaces wholesale: the partition, the per-subgraph first-level
// indexes, the skeleton graph, and the pair->subgraph map.  All four are
// immutable in structure once a generation is published (weight updates
// mutate weights inside them, but never the structure), so readers pin a
// generation with a single atomic load and epoch views keep their generation
// alive for as long as they are referenced.
type generation struct {
	part     *partition.Partition
	subs     []*SubgraphIndex
	skeleton *Skeleton
	pairSubs map[PairKey][]partition.SubgraphID // subgraphs contributing a finite LBD for the pair
}

// Index is the DTLP index over a partitioned graph.
type Index struct {
	cfg Config

	// gen is the current structural generation.  Weight updates mutate the
	// current generation in place (weights only); topology updates derive and
	// atomically install a new one.  Epoch views pin the generation they were
	// published from, so queries on old epochs keep resolving the partition
	// and skeleton that existed at that epoch.
	gen atomic.Pointer[generation]

	// Epoch view machinery: writeMu serializes ApplyUpdates and ApplyTopology
	// (the single writer), view holds the most recently published IndexView,
	// and recent retains a window of past views so queries can be audited
	// against the exact epoch they ran on.  epochBase is the epoch of the
	// first published view: 0 for a freshly built index, the snapshot epoch
	// for a recovered one (see Importer.Finish), so epochs continue across
	// restarts.
	epochBase uint64
	writeMu   sync.Mutex
	view      atomic.Pointer[IndexView]
	viewMu    sync.Mutex
	recent    []*IndexView
}

// Build constructs the DTLP index for the given partition.  Subgraphs are
// indexed in parallel (the distributed deployment assigns them to workers;
// here goroutines stand in for workers during offline construction).
func Build(part *partition.Partition, cfg Config) (*Index, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	x := &Index{cfg: cfg}
	g := &generation{
		part: part,
		subs: make([]*SubgraphIndex, part.NumSubgraphs()),
	}

	// Index each subgraph (first level): bounding paths, EP-Index, LBDs.
	all := make([]partition.SubgraphID, part.NumSubgraphs())
	for i := range all {
		all[i] = partition.SubgraphID(i)
	}
	if err := buildSubgraphIndexes(g.subs, part, all, cfg, cfg.Parallelism); err != nil {
		return nil, err
	}

	// Record which subgraphs contribute to each boundary pair, then build the
	// second level: the skeleton graph with MBD edge weights.
	if err := g.finishStructure(); err != nil {
		return nil, err
	}
	x.gen.Store(g)
	x.publishView(nil) // epoch 0: the construction-time weights
	return x, nil
}

// buildSubgraphIndexes builds the first-level index of every listed subgraph
// of part into its slot of subs, on up to width goroutines.
func buildSubgraphIndexes(subs []*SubgraphIndex, part *partition.Partition, ids []partition.SubgraphID, cfg Config, width int) error {
	errs := make([]error, len(ids))
	fanout.Do(len(ids), width, func(i int) {
		subs[ids[i]], errs[i] = buildSubgraphIndex(part.Subgraph(ids[i]), cfg)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// finishStructure derives the generation state that is a pure function of the
// partition and the per-subgraph indexes: the pair->subgraph map and the
// skeleton graph.  Registration iterates pairs in sorted order so the derived
// structures are deterministic.
func (g *generation) finishStructure() error {
	directed := g.part.Parent().Directed()
	g.pairSubs = make(map[PairKey][]partition.SubgraphID)
	for _, si := range g.subs {
		keys := make([]PairKey, 0, len(si.pairs))
		for k := range si.pairs {
			keys = append(keys, k)
		}
		sortPairKeys(keys)
		for _, key := range keys {
			gk := si.globalPairKey(key, directed)
			g.pairSubs[gk] = append(g.pairSubs[gk], si.sub.ID)
		}
	}
	skel, err := buildSkeleton(g.part, g.mbdAll(), directed)
	if err != nil {
		return err
	}
	g.skeleton = skel
	return nil
}

// Config returns the configuration the index was built with.
func (x *Index) Config() Config { return x.cfg }

// Partition returns the current partition of the index.  Topology updates
// replace the partition; callers that must stay consistent with a specific
// epoch should resolve it through that epoch's IndexView instead.
func (x *Index) Partition() *partition.Partition { return x.gen.Load().part }

// Skeleton returns the current skeleton graph Gλ (second index level).
func (x *Index) Skeleton() *Skeleton { return x.gen.Load().skeleton }

// SubgraphIndex returns the current first-level index of one subgraph.
func (x *Index) SubgraphIndex(id partition.SubgraphID) *SubgraphIndex { return x.gen.Load().subs[id] }

// LBD returns the lower bound distance between global boundary vertices a and
// b within subgraph id, or +Inf if the pair is not indexed there.
func (x *Index) LBD(id partition.SubgraphID, a, b graph.VertexID) float64 {
	return x.gen.Load().subs[id].LBDGlobal(a, b)
}

// MBD returns the minimum lower bound distance between global boundary
// vertices a and b across all subgraphs containing both, or +Inf if no
// subgraph indexes the pair.
func (x *Index) MBD(a, b graph.VertexID) float64 {
	return x.gen.Load().mbd(a, b)
}

// mbd computes the minimum lower bound distance of one boundary pair within
// this generation.
func (g *generation) mbd(a, b graph.VertexID) float64 {
	key := MakePairKey(a, b, g.part.Parent().Directed())
	best := inf()
	for _, id := range g.pairSubs[key] {
		if d := g.subs[id].LBDGlobal(a, b); d < best {
			best = d
		}
	}
	return best
}

// mbdAll computes the MBD of every indexed boundary pair.
func (g *generation) mbdAll() map[PairKey]float64 {
	out := make(map[PairKey]float64)
	for key, subs := range g.pairSubs {
		best := inf()
		for _, id := range subs {
			if d := g.subs[id].LBDGlobal(key.A, key.B); d < best {
				best = d
			}
		}
		if best < inf() {
			out[key] = best
		}
	}
	return out
}

// weightsAt resolves the weighted view a subgraph computation runs over: the
// live local graph (Index methods) or an epoch snapshot (IndexView methods).
type weightsAt func(partition.SubgraphID) graph.WeightedView

// liveWeights reads each subgraph's live local graph.
func (g *generation) liveWeights(id partition.SubgraphID) graph.WeightedView {
	return g.part.Subgraph(id).Local
}

// BoundaryLowerBounds returns, for an arbitrary (possibly non-boundary)
// global vertex v, a lower bound on the distance within each containing
// subgraph from v to every boundary vertex of that subgraph.  This implements
// the Step 1 handling of non-boundary query endpoints (Section 5.3): the
// returned map is used to attach v to the skeleton graph.
//
// The bound used is the exact shortest distance inside the subgraph, which is
// a valid (and the tightest possible) lower bound for the first/last segment
// of any path leaving the subgraph through a boundary vertex.
func (x *Index) BoundaryLowerBounds(v graph.VertexID) map[graph.VertexID]float64 {
	g := x.gen.Load()
	return g.boundaryLowerBounds(v, g.liveWeights)
}

func (g *generation) boundaryLowerBounds(v graph.VertexID, at weightsAt) map[graph.VertexID]float64 {
	out := make(map[graph.VertexID]float64)
	for _, id := range g.part.SubgraphsOf(v) {
		for bv, d := range g.subs[id].boundaryDistancesFrom(v, at(id)) {
			if cur, ok := out[bv]; !ok || d < cur {
				out[bv] = d
			}
		}
	}
	return out
}

// BoundaryLowerBoundsTo is the directed counterpart of BoundaryLowerBounds:
// it returns, per boundary vertex b of the subgraphs containing v, a lower
// bound on the within-subgraph distance travelling from b to v.  For
// undirected graphs it equals BoundaryLowerBounds.
func (x *Index) BoundaryLowerBoundsTo(v graph.VertexID) map[graph.VertexID]float64 {
	g := x.gen.Load()
	return g.boundaryLowerBoundsTo(v, g.liveWeights)
}

func (g *generation) boundaryLowerBoundsTo(v graph.VertexID, at weightsAt) map[graph.VertexID]float64 {
	if !g.part.Parent().Directed() {
		return g.boundaryLowerBounds(v, at)
	}
	out := make(map[graph.VertexID]float64)
	for _, id := range g.part.SubgraphsOf(v) {
		for bv, d := range g.subs[id].boundaryDistancesTo(v, at(id)) {
			if cur, ok := out[bv]; !ok || d < cur {
				out[bv] = d
			}
		}
	}
	return out
}

// WithinSubgraphDistance returns the smallest shortest-path distance from s
// to t measured inside any single subgraph containing both, or +Inf if no
// subgraph contains both vertices.  KSP-DG uses it to attach a direct edge
// between two non-boundary query endpoints that share a subgraph.
func (x *Index) WithinSubgraphDistance(s, t graph.VertexID) float64 {
	g := x.gen.Load()
	return g.withinSubgraphDistance(s, t, g.liveWeights)
}

func (g *generation) withinSubgraphDistance(s, t graph.VertexID, at weightsAt) float64 {
	best := inf()
	for _, id := range g.part.CommonSubgraphs(s, t) {
		sub := g.part.Subgraph(id)
		ls, okS := sub.ToLocal(s)
		lt, okT := sub.ToLocal(t)
		if !okS || !okT {
			continue
		}
		if d := shortest.ShortestDistance(at(id), ls, lt, nil); d < best {
			best = d
		}
	}
	return best
}

// ApplyUpdates ingests a batch of global edge weight updates: it propagates
// the new weights to the owning subgraphs' local graphs, refreshes the
// affected bounding path distances via the EP-Index, recomputes lower bound
// distances, and updates the skeleton graph edge weights (Algorithm 2).
//
// The parent graph itself is not modified; callers that also track the full
// graph (the master node) apply the same batch there.
//
// ApplyUpdates is the index's single writer: concurrent calls are serialized
// internally, and once a call returns a new epoch view reflecting the whole
// batch has been published atomically (see CurrentView).  Queries running
// against previously obtained views are unaffected.
func (x *Index) ApplyUpdates(batch []graph.WeightUpdate) error {
	_, err := x.ApplyUpdatesStats(batch)
	return err
}

// ApplyUpdatesEpoch is ApplyUpdates returning the epoch published for the
// batch (or the current epoch for an empty batch).  The persistence layer
// uses it to tag WAL records with the exact epoch their batch produced.
func (x *Index) ApplyUpdatesEpoch(batch []graph.WeightUpdate) (uint64, error) {
	st, err := x.ApplyUpdatesStats(batch)
	return st.Epoch, err
}

// UpdateStats reports the maintenance work one update batch performed.
type UpdateStats struct {
	// Epoch is the epoch published for the batch (or the current epoch for
	// an empty batch).
	Epoch uint64
	// PathsTouched counts the bounding path distance adjustments the batch
	// caused: one per (updated edge, bounding path crossing it) EP-Index
	// entry with a nonzero delta.
	PathsTouched int
	// SubgraphsAffected counts the subgraphs whose bounds were refreshed.
	SubgraphsAffected int
	// PairsChanged counts the distinct boundary pairs whose skeleton weight
	// was recomputed because some subgraph's LBD for them changed.
	PairsChanged int
}

// ApplyUpdatesStats is ApplyUpdates returning per-batch maintenance
// statistics (published epoch, bounding paths touched, subgraphs refreshed,
// skeleton pairs recomputed).
//
// Maintenance is sharded: edge deltas are grouped per subgraph (preserving
// batch order within each group, so floating-point accumulation matches the
// serial path exactly) and the per-subgraph applyEdgeDelta+refreshBounds work
// runs on up to GOMAXPROCS goroutines — each subgraph's first-level
// state is independent, which is what the paper exploits by assigning
// subgraphs to different SubgraphBolts.  Skeleton weights are then recomputed
// serially from the deterministically sorted union of changed pairs; since
// every subgraph whose LBD changed reports the pair itself, computing MBDs
// after all refreshes yields the same final weights as the serial
// interleaving.  Epoch publication stays atomic and single-writer.
func (x *Index) ApplyUpdatesStats(batch []graph.WeightUpdate) (UpdateStats, error) {
	if len(batch) == 0 {
		return UpdateStats{Epoch: x.CurrentView().Epoch()}, nil
	}
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	g := x.gen.Load()
	// Capture pre-update weights to derive the deltas used for incremental
	// bounding path distance maintenance, grouped per owning subgraph in
	// batch order.
	type pendingDelta struct {
		local graph.EdgeID
		delta float64
	}
	perSub := make(map[partition.SubgraphID][]pendingDelta)
	numEdges := g.part.Parent().NumEdges()
	for _, u := range batch {
		if u.Edge < 0 || int(u.Edge) >= numEdges {
			return UpdateStats{}, fmt.Errorf("dtlp: update for edge %d outside [0,%d)", u.Edge, numEdges)
		}
		loc := g.part.Locate(u.Edge)
		if loc.Subgraph == partition.NoSubgraph {
			return UpdateStats{}, fmt.Errorf("dtlp: update for edge %d not covered by partition", u.Edge)
		}
		old := g.part.Subgraph(loc.Subgraph).Local.Weight(loc.LocalEdge)
		if delta := u.NewWeight - old; delta != 0 {
			perSub[loc.Subgraph] = append(perSub[loc.Subgraph], pendingDelta{local: loc.LocalEdge, delta: delta})
		}
	}
	// Push new weights into the subgraph local graphs.
	if _, err := g.part.ApplyUpdates(batch); err != nil {
		return UpdateStats{}, err
	}
	affectedIDs := make([]partition.SubgraphID, 0, len(perSub))
	for id := range perSub {
		affectedIDs = append(affectedIDs, id)
	}
	sort.Slice(affectedIDs, func(i, j int) bool { return affectedIDs[i] < affectedIDs[j] })
	// Shard the EP-Index distance adjustments and bound refreshes across the
	// affected subgraphs.  refreshOne touches only subgraph-local state (and
	// reads the already-updated local weights), so the shards are disjoint.
	changed := make([][]PairKey, len(affectedIDs))
	touchedPer := make([]int, len(affectedIDs))
	fanout.Do(len(affectedIDs), runtime.GOMAXPROCS(0), func(i int) {
		si := g.subs[affectedIDs[i]]
		touched := 0
		for _, d := range perSub[affectedIDs[i]] {
			touched += si.applyEdgeDelta(d.local, d.delta)
		}
		touchedPer[i] = touched
		changed[i] = si.refreshBounds()
	})
	st := UpdateStats{SubgraphsAffected: len(affectedIDs)}
	for _, t := range touchedPer {
		st.PathsTouched += t
	}
	// Recompute the skeleton weights for every pair whose LBD changed in some
	// subgraph.  The union is sorted (and deduplicated) so the write order is
	// deterministic regardless of which goroutine finished first; the MBDs
	// themselves are order-independent minima over the refreshed LBDs.
	directed := g.part.Parent().Directed()
	var changedPairs []PairKey
	for i, id := range affectedIDs {
		si := g.subs[id]
		for _, localPair := range changed[i] {
			changedPairs = append(changedPairs, si.globalPairKey(localPair, directed))
		}
	}
	sort.Slice(changedPairs, func(i, j int) bool {
		if changedPairs[i].A != changedPairs[j].A {
			return changedPairs[i].A < changedPairs[j].A
		}
		return changedPairs[i].B < changedPairs[j].B
	})
	var prev PairKey
	for i, gk := range changedPairs {
		if i > 0 && gk == prev {
			continue
		}
		prev = gk
		st.PairsChanged++
		mbd := g.mbd(gk.A, gk.B)
		if err := g.skeleton.SetWeight(gk, mbd); err != nil {
			return UpdateStats{}, err
		}
	}
	// Publish the next epoch: re-snapshot only the touched subgraphs, share
	// everything else with the previous view.
	affected := make(map[partition.SubgraphID]bool, len(affectedIDs))
	for _, id := range affectedIDs {
		affected[id] = true
	}
	nv := x.publishView(affected)
	st.Epoch = nv.epoch
	return st, nil
}

// PathsCrossing counts the EP-Index entries of the batch's edges: the number
// of bounding path distance adjustments applying the batch would perform
// (duplicate edges in the batch count each time, mirroring ApplyUpdates).
// Bounding path structure is immutable after construction, so the count is
// safe to take concurrently with queries and updates.  Edges outside the
// partition count zero.
func (x *Index) PathsCrossing(batch []graph.WeightUpdate) int {
	g := x.gen.Load()
	numEdges := g.part.Parent().NumEdges()
	n := 0
	for _, u := range batch {
		if u.Edge < 0 || int(u.Edge) >= numEdges {
			continue
		}
		loc := g.part.Locate(u.Edge)
		if loc.Subgraph == partition.NoSubgraph {
			continue
		}
		n += len(g.subs[loc.Subgraph].epIndex[loc.LocalEdge])
	}
	return n
}

// Stats summarises index size for the construction-cost experiments
// (Figures 15-18) and Table 1.
type Stats struct {
	NumSubgraphs        int
	NumBoundaryVertices int
	SkeletonVertices    int
	SkeletonEdges       int
	NumBoundingPaths    int
	EPIndexEntries      int // total (edge -> path) entries across all subgraphs
	ApproxBytes         int64
}

// Stats returns size statistics of the index.
func (x *Index) Stats() Stats {
	g := x.gen.Load()
	st := Stats{
		NumSubgraphs:        g.part.NumSubgraphs(),
		NumBoundaryVertices: len(g.part.BoundaryVertices()),
		SkeletonVertices:    g.skeleton.NumVertices(),
		SkeletonEdges:       g.skeleton.NumEdges(),
	}
	for _, si := range g.subs {
		st.NumBoundingPaths += si.numPaths
		st.EPIndexEntries += si.epEntries
		st.ApproxBytes += si.approxBytes()
	}
	st.ApproxBytes += int64(st.SkeletonEdges) * 24
	return st
}

func inf() float64 { return infValue }
