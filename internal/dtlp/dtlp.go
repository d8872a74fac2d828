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
// epoch views (IndexView).  ApplyUpdates, ReplayUpdates and ApplyTopology
// are the single writer: under an internal write lock, ApplyUpdates has the
// master graph, the touched subgraphs' local graphs and the skeleton graph
// each publish a new immutable weight snapshot (see graph.Graph.ApplyUpdates),
// refreshes the bounding path distances, and then atomically publishes a new
// IndexView — the skeleton's current snapshot plus every subgraph's.  A WAL
// replay hands ReplayUpdates a run of batches, which publishes one view for
// the run's older batches and one per batch only for the epochs ViewAt
// retains.  A subgraph the batch did not touch still has the snapshot the
// previous epoch holds, so consecutive epochs share it.  Queries obtain a
// view via CurrentView (or resolve a specific epoch with ViewAt) and see a
// single consistent set of weights for their whole lifetime, no matter how
// many update batches are applied concurrently.  Bounding paths themselves are immutable by design,
// which is what makes copy-on-write publication cheap: only weight arrays are
// ever copied, never index structure.
package dtlp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"kspdg/internal/fanout"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
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

	// Epoch view machinery: writeMu serializes ApplyUpdates, ReplayUpdates
	// and ApplyTopology (the single writer), view holds the most recently
	// published IndexView, and recent retains a window of past views so
	// queries can be audited against the exact epoch they ran on.  The first
	// view is epoch 0 for a freshly built index and the snapshot epoch for a
	// recovered one (see Importer.Finish), so epochs continue across
	// restarts.
	writeMu sync.Mutex
	view    atomic.Pointer[IndexView]
	viewMu  sync.Mutex
	recent  []*IndexView
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
	x.publishView(0) // the construction-time weights
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

// ApplyUpdates ingests a batch of global edge weight updates: it writes the
// new weights to the master graph (the partition's parent) and to the owning
// subgraphs' local graphs, refreshes the affected bounding path distances via
// the EP-Index, recomputes lower bound distances, and updates the skeleton
// graph edge weights (Algorithm 2).  It returns the published epoch (the
// current epoch for an empty batch) and the maintenance work performed.
//
// An edge named more than once in a batch takes its last weight: updates
// are read and written in batch order, so each delta is taken from the
// weight the previous update of the same edge left behind.
//
// ApplyUpdates is the index's single writer, shared with ReplayUpdates and
// ApplyTopology: concurrent calls are serialized internally, and once a call
// returns a new epoch view reflecting the whole batch has been published
// atomically (see CurrentView).  Queries running against previously obtained
// views are unaffected.  A batch CheckUpdates rejects changes nothing.
//
// Algorithm 2 runs once per run of consecutive weight batches, and a live
// batch is the run of one (see applyRun); ReplayUpdates hands it longer runs.
func (x *Index) ApplyUpdates(batch []graph.WeightUpdate) (UpdateStats, error) {
	if len(batch) == 0 {
		return UpdateStats{Epoch: x.CurrentView().Epoch()}, nil
	}
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	if err := x.gen.Load().checkUpdates(batch); err != nil {
		return UpdateStats{}, err
	}
	return x.applyRun([][]graph.WeightUpdate{batch})
}

// ReplayUpdates applies consecutive weight batches, as a WAL replay does:
// batch i publishes the current epoch plus i+1, and the result is
// bit-identical to calling ApplyUpdates once per batch.  It checks every
// batch before applying any, and a batch CheckUpdates rejects fails the call
// with an error naming the epoch that batch would have published.  Every
// batch publishes an epoch, an empty one too.
//
// Only the last viewRetention epochs can be resolved through ViewAt, so all
// batches up to the oldest of them are applied as one run, which publishes
// that oldest epoch, and the rest one at a time: ViewAt answers for exactly
// the epochs it would after one ApplyUpdates per batch.  It returns the
// current epoch.
func (x *Index) ReplayUpdates(batches [][]graph.WeightUpdate) (uint64, error) {
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	g, epoch := x.gen.Load(), x.view.Load().epoch
	for i, batch := range batches {
		if err := g.checkUpdates(batch); err != nil {
			return 0, fmt.Errorf("batch for epoch %d: %w", epoch+uint64(i)+1, err)
		}
	}
	bulk := max(len(batches)-viewRetention+1, 0)
	if bulk > 0 {
		if _, err := x.applyRun(batches[:bulk]); err != nil {
			return 0, err
		}
	}
	for i := bulk; i < len(batches); i++ {
		if _, err := x.applyRun(batches[i : i+1]); err != nil {
			return 0, err
		}
	}
	return x.view.Load().epoch, nil
}

// applyRun is Algorithm 2 over a run of checked weight batches, and
// publishes the epoch of the run's last batch.  It splits the work in two.
//
// The per-update part runs for every update in run order, exactly as one
// ApplyUpdates per batch would: each update's delta is the new weight less
// the one it replaces, read from the pre-run snapshot or from the previous
// update of the same edge in the run, and every bounding path crossing the
// edge adds that delta to its distance.  An update with a zero delta rewrites
// the weight already there and is dropped.
//
// The per-state part runs once per run: one weight write per graph, one
// bound refresh per affected subgraph, the MBDs of the pairs whose LBD
// changed, one skeleton write and one view.  Bounds, LBDs and MBDs depend
// only on the current weights and path distances, and the distances take the
// same deltas in the same order either way, so a run leaves the same bits as
// its batches applied one by one.
//
// Maintenance is sharded: deltas are grouped per subgraph (preserving run
// order within each group, so every path distance accumulates its deltas in
// that order) and the per-subgraph work (one graph.ApplyUpdates of the local
// graph, applyEdgeDelta, refreshBounds) runs on up to GOMAXPROCS goroutines —
// each subgraph's first-level state is independent, which is what the paper
// exploits by assigning subgraphs to different SubgraphBolts.  The skeleton
// is then maintained by index: the changed local pairs mark their global
// pairs, and one sweep in pair order recomputes each marked pair's MBD from
// its LBD slots and writes all new skeleton weights in one
// graph.ApplyUpdates.  Since every subgraph whose LBD changed marks the pair
// itself, computing MBDs after all refreshes yields the same weights as the
// serial interleaving.  Callers hold x.writeMu.
func (x *Index) applyRun(batches [][]graph.WeightUpdate) (UpdateStats, error) {
	g := x.gen.Load()
	parent, all := g.part.Parent(), batches[0]
	if len(batches) > 1 {
		all = slices.Concat(batches...) // the last write of an edge wins
	}
	if err := parent.ApplyUpdates(all); err != nil {
		return UpdateStats{}, err
	}
	// Group the run per owning subgraph in run order, with each update's
	// delta.  The groups are carved out of two run-sized arrays, so grouping
	// allocates the same few arrays whatever the run's size.
	count := make([]int, len(g.subs))
	for _, u := range all {
		count[g.part.Locate(u.Edge).Subgraph]++
	}
	flatW, flatD := make([]graph.WeightUpdate, len(all)), make([]float64, len(all))
	writes, deltas := make([][]graph.WeightUpdate, len(g.subs)), make([][]float64, len(g.subs))
	off := 0
	for id, n := range count {
		writes[id], deltas[id] = flatW[off:off:off+n], flatD[off:off:off+n]
		off += n
	}
	written := make(map[graph.EdgeID]float64, min(len(all), parent.NumEdges()))
	for _, u := range all {
		loc := g.part.Locate(u.Edge)
		prev, ok := written[u.Edge]
		if !ok {
			prev = g.part.Subgraph(loc.Subgraph).Local.Snapshot().Weight(loc.LocalEdge)
		}
		written[u.Edge] = u.NewWeight
		if delta := u.NewWeight - prev; delta != 0 {
			writes[loc.Subgraph] = append(writes[loc.Subgraph], graph.WeightUpdate{Edge: loc.LocalEdge, NewWeight: u.NewWeight})
			deltas[loc.Subgraph] = append(deltas[loc.Subgraph], delta)
		}
	}
	var affectedIDs []partition.SubgraphID
	for id, ws := range writes {
		if len(ws) > 0 {
			affectedIDs = append(affectedIDs, partition.SubgraphID(id))
		}
	}
	// Shard the local writes, EP-Index distance adjustments and bound
	// refreshes across the affected subgraphs.  Each shard touches only its
	// subgraph's state, so the shards are disjoint.
	changed := make([][]int32, len(affectedIDs))
	touchedPer := make([]int, len(affectedIDs))
	errs := make([]error, len(affectedIDs))
	fanout.Do(len(affectedIDs), runtime.GOMAXPROCS(0), func(i int) {
		id := affectedIDs[i]
		if errs[i] = g.part.Subgraph(id).Local.ApplyUpdates(writes[id]); errs[i] != nil {
			return
		}
		si := g.subs[id]
		for j, w := range writes[id] {
			touchedPer[i] += si.applyEdgeDelta(w.Edge, deltas[id][j])
		}
		changed[i] = si.refreshBounds(writes[id])
	})
	if err := errors.Join(errs...); err != nil {
		return UpdateStats{}, err
	}
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
	// Publish the run's last epoch: the touched subgraphs have new snapshots,
	// the rest keep the ones the previous view holds.
	nv := x.publishView(x.view.Load().epoch + uint64(len(batches)))
	st.Epoch = nv.epoch
	return st, nil
}

// CheckUpdates returns the error ApplyUpdates would fail batch with, without
// applying anything: an edge outside the graph, deleted (wrapping
// graph.ErrEdgeDeleted), or owned by no subgraph, or a weight that is
// negative, NaN or infinite.  Callers that log a batch before applying it
// (serve's writer) check it first, so the log never holds a batch the index
// refuses.
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
			return fmt.Errorf("dtlp: weight update on edge %d: %w", u.Edge, graph.ErrEdgeDeleted)
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
