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
// # Layout
//
// The index is flat.  Within a subgraph, pairs are sorted and bounding paths
// have dense ids, so distances, vfrag counts and LBDs are plain slices, a
// path's vertices and edges are ranges of one array each, and the EP-Index
// is in compressed sparse row form (SubgraphIndex).  Bounds are computed
// once per distinct vfrag count, not once per path.  Across subgraphs, each
// generation numbers the global pairs in sorted order and keeps, per pair,
// its LBD slots and its skeleton edge, so an update batch reaches the
// skeleton by index, without maps or sorting (generation).  Maintenance over
// this layout produces the same bits as recomputing every path's bound and
// every pair's MBD from scratch.
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
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
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
// indexes, the skeleton graph, and the tables that tie local pairs to global
// pairs and skeleton edges.  All of it is immutable in structure once a
// generation is published (weight updates mutate weights, distances and
// bounds inside it, but never the structure), so readers pin a generation
// with a single atomic load and epoch views keep their generation alive for
// as long as they are referenced.
//
// The pair tables live here, not on SubgraphIndex, because ApplyTopology
// shares every SubgraphIndex a batch did not touch with the next generation,
// whose global pairs are numbered differently.
type generation struct {
	part     *partition.Partition
	subs     []*SubgraphIndex
	skeleton *Skeleton

	// pairs are the global boundary pairs indexed by some subgraph, sorted by
	// (A, B).  Global pair i takes its MBD over the LBD slots
	// contrib[contribOff[i]:contribOff[i+1]], in subgraph-id order, and its
	// weight lives on skeleton edge pairEdge[i] (graph.NoEdge if it has
	// none).  globalPair[s][j] is the global pair of local pair j of
	// subgraph s.
	pairs      []PairKey
	contribOff []int32
	contrib    []lbdSlot
	pairEdge   []graph.EdgeID
	globalPair [][]int32
}

// lbdSlot names one subgraph's LBD of a pair: SubgraphIndex.lbd[pair] of
// subgraph sub.
type lbdSlot struct {
	sub  partition.SubgraphID
	pair int32
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
// partition and the per-subgraph indexes: the global pair tables and the
// skeleton graph.  Everything is laid out in sorted pair order, so the
// derived structures are deterministic.
func (g *generation) finishStructure() error {
	directed := g.part.Parent().Directed()
	type keyed struct {
		key  PairKey
		slot lbdSlot
	}
	var all []keyed
	g.globalPair = make([][]int32, len(g.subs))
	for _, si := range g.subs {
		g.globalPair[si.sub.ID] = make([]int32, len(si.pairKeys))
		for j, k := range si.pairKeys {
			all = append(all, keyed{si.globalPairKey(k, directed), lbdSlot{si.sub.ID, int32(j)}})
		}
	}
	slices.SortFunc(all, func(x, y keyed) int {
		if c := comparePairKeys(x.key, y.key); c != 0 {
			return c
		}
		return cmp.Compare(x.slot.sub, y.slot.sub)
	})
	g.contrib = make([]lbdSlot, len(all))
	for i, kd := range all {
		if i == 0 || kd.key != all[i-1].key {
			g.pairs = append(g.pairs, kd.key)
			g.contribOff = append(g.contribOff, int32(i))
		}
		g.contrib[i] = kd.slot
		g.globalPair[kd.slot.sub][kd.slot.pair] = int32(len(g.pairs) - 1)
	}
	g.contribOff = append(g.contribOff, int32(len(all)))
	mbd := make([]float64, len(g.pairs))
	for i := range mbd {
		mbd[i] = g.mbdOf(i)
	}
	skel, pairEdge, err := buildSkeleton(g.part, g.pairs, mbd, directed)
	if err != nil {
		return err
	}
	g.skeleton, g.pairEdge = skel, pairEdge
	return nil
}

// mbdOf computes the MBD of global pair i: the minimum of its subgraphs'
// LBDs, taken in subgraph-id order.
func (g *generation) mbdOf(i int) float64 {
	best := infValue
	for _, c := range g.contrib[g.contribOff[i]:g.contribOff[i+1]] {
		if d := g.subs[c.sub].lbd[c.pair]; d < best {
			best = d
		}
	}
	return best
}

// approxBytes is the memory the generation's pair tables hold.
func (g *generation) approxBytes() int64 {
	b := int64(len(g.pairs))*8 + int64(len(g.contribOff)+len(g.pairEdge))*4 + int64(len(g.contrib))*8
	for _, gp := range g.globalPair {
		b += int64(len(gp)) * 4
	}
	return b
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
	i, ok := slices.BinarySearchFunc(g.pairs, MakePairKey(a, b, g.part.Parent().Directed()), comparePairKeys)
	if !ok {
		return infValue
	}
	return g.mbdOf(i)
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
	best := infValue
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
// A batch CheckUpdates rejects changes nothing.  Otherwise maintenance is
// sharded: edge deltas are grouped per subgraph (preserving batch order
// within each group, so every path distance accumulates its deltas in batch
// order) and the per-subgraph applyEdgeDelta+refreshBounds work runs on up to
// GOMAXPROCS goroutines — each subgraph's first-level state is independent,
// which is what the paper exploits by assigning subgraphs to different
// SubgraphBolts.  The skeleton is then maintained by index: the changed local
// pairs mark their global pairs, and one sweep in pair order recomputes each
// marked pair's MBD from its LBD slots and writes all new skeleton weights in
// one graph.ApplyUpdates.  Since every subgraph whose LBD changed marks the
// pair itself, computing MBDs after all refreshes yields the same weights as
// the serial interleaving.  Epoch publication stays atomic and single-writer.
func (x *Index) ApplyUpdatesStats(batch []graph.WeightUpdate) (UpdateStats, error) {
	if len(batch) == 0 {
		return UpdateStats{Epoch: x.CurrentView().Epoch()}, nil
	}
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	g := x.gen.Load()
	if err := g.checkUpdates(batch); err != nil {
		return UpdateStats{}, err
	}
	// Capture pre-update weights to derive the deltas used for incremental
	// bounding path distance maintenance, grouped per owning subgraph in
	// batch order.
	type pendingDelta struct {
		local graph.EdgeID
		delta float64
	}
	perSub := make([][]pendingDelta, len(g.subs))
	for _, u := range batch {
		loc := g.part.Locate(u.Edge)
		old := g.part.Subgraph(loc.Subgraph).Local.Weight(loc.LocalEdge)
		if delta := u.NewWeight - old; delta != 0 {
			perSub[loc.Subgraph] = append(perSub[loc.Subgraph], pendingDelta{local: loc.LocalEdge, delta: delta})
		}
	}
	// Push new weights into the subgraph local graphs.
	if _, err := g.part.ApplyUpdates(batch); err != nil {
		return UpdateStats{}, err
	}
	var affectedIDs []partition.SubgraphID
	for id, ds := range perSub {
		if len(ds) > 0 {
			affectedIDs = append(affectedIDs, partition.SubgraphID(id))
		}
	}
	// Shard the EP-Index distance adjustments and bound refreshes across the
	// affected subgraphs.  Each shard touches only its subgraph's state (and
	// reads the already-updated local weights), so the shards are disjoint.
	changed := make([][]int32, len(affectedIDs))
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
	// Recompute the skeleton weight of every global pair whose LBD changed in
	// some subgraph, in pair order, and validate every new weight before
	// writing any.
	marked := make([]bool, len(g.pairs))
	for i, id := range affectedIDs {
		globalPair := g.globalPair[id]
		for _, j := range changed[i] {
			marked[globalPair[j]] = true
		}
	}
	var ups []graph.WeightUpdate
	for i, m := range marked {
		if !m {
			continue
		}
		st.PairsChanged++
		e := g.pairEdge[i]
		if e == graph.NoEdge {
			continue // no skeleton edge: unreachable in every subgraph, which weights cannot change
		}
		mbd := g.mbdOf(i)
		if mbd < 0 || mbd == infValue {
			return UpdateStats{}, fmt.Errorf("dtlp: invalid skeleton weight %g for pair (%d,%d)", mbd, g.pairs[i].A, g.pairs[i].B)
		}
		ups = append(ups, graph.WeightUpdate{Edge: e, NewWeight: mbd})
	}
	if len(ups) > 0 {
		if err := g.skeleton.g.ApplyUpdates(ups); err != nil {
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

// CheckUpdates returns the error ApplyUpdates would fail batch with, without
// applying anything: an edge outside the graph, deleted, or owned by no
// subgraph, or a weight that is negative, NaN or infinite.  Callers that log
// a batch before applying it (serve's writer) check it first, so the log
// never holds a batch the index refuses.
func (x *Index) CheckUpdates(batch []graph.WeightUpdate) error {
	return x.gen.Load().checkUpdates(batch)
}

func (g *generation) checkUpdates(batch []graph.WeightUpdate) error {
	parent := g.part.Parent()
	numEdges := parent.NumEdges()
	for _, u := range batch {
		if u.Edge < 0 || int(u.Edge) >= numEdges {
			return fmt.Errorf("dtlp: update for edge %d outside [0,%d)", u.Edge, numEdges)
		}
		if !parent.EdgeAlive(u.Edge) {
			return fmt.Errorf("dtlp: weight update on deleted edge %d", u.Edge)
		}
		if g.part.Locate(u.Edge).Subgraph == partition.NoSubgraph {
			return fmt.Errorf("dtlp: update for edge %d not covered by partition", u.Edge)
		}
		if !(u.NewWeight >= 0) || math.IsInf(u.NewWeight, 1) {
			return fmt.Errorf("dtlp: invalid weight %g for edge %d", u.NewWeight, u.Edge)
		}
	}
	return nil
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
		si := g.subs[loc.Subgraph]
		n += int(si.epOff[loc.LocalEdge+1] - si.epOff[loc.LocalEdge])
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
		st.NumBoundingPaths += si.NumBoundingPaths()
		st.EPIndexEntries += si.EPIndexEntries()
		st.ApproxBytes += si.approxBytes()
	}
	// A skeleton edge holds its endpoints, initial and current weight, and
	// an adjacency arc per direction of travel.
	arcs := int64(2)
	if g.skeleton.Directed() {
		arcs = 1
	}
	st.ApproxBytes += int64(st.SkeletonEdges)*(24+8*arcs) + g.approxBytes()
	return st
}
