package dtlp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/testutil"
)

// This file holds a reference model of DTLP maintenance as the paper states
// it and as the index first implemented it: every bounding path keeps its own
// distance, adjusted edge by edge through an edge -> paths map; every refresh
// sorts a fresh unit-weight table by (unit weight, edge id) and sums each
// path's bound from it on its own; a pair's LBD is Theorem 1 over its paths;
// an MBD is the minimum LBD over the subgraphs holding the pair, in
// subgraph-id order.  The index keeps its state in flat arrays, computes
// bounds once per distinct vfrag count and merges only the edges a run moved
// back into its unit order; TestFlatMaintenanceMatchesPerPathRecompute
// proves the two give the same bits.

type refPath struct {
	edges  []graph.EdgeID
	vfrags float64
	dist   float64
	bound  float64
}

type refPair struct {
	key   PairKey // local vertex ids
	paths []*refPath
	lbd   float64
}

// refSub mirrors the first level of one subgraph.
type refSub struct {
	si    *SubgraphIndex // the index object this mirrors
	pairs []*refPair
	ep    map[graph.EdgeID][]*refPath
}

// newRefSub reads the structure of si through its accessors and sums each
// path's distance from the current weights in path order, as Build does.
func newRefSub(si *SubgraphIndex) *refSub {
	sub := si.Subgraph()
	directed := sub.Local.Directed()
	rs := &refSub{si: si, ep: make(map[graph.EdgeID][]*refPath)}
	seen := make(map[PairKey]bool)
	for i, a := range sub.Boundary {
		for j, b := range sub.Boundary {
			if i == j || (!directed && j < i) {
				continue
			}
			la, _ := sub.ToLocal(a)
			lb, _ := sub.ToLocal(b)
			key := MakePairKey(la, lb, directed)
			bps := si.BoundingPaths(key.A, key.B)
			if len(bps) == 0 || seen[key] {
				continue
			}
			seen[key] = true
			rp := &refPair{key: key, lbd: math.Inf(1)}
			for _, bp := range bps {
				p := &refPath{edges: append([]graph.EdgeID(nil), bp.Edges...), vfrags: bp.Vfrags}
				for _, e := range p.edges {
					p.dist += sub.Local.Snapshot().Weight(e)
					rs.ep[e] = append(rs.ep[e], p)
				}
				rp.paths = append(rp.paths, p)
			}
			rs.pairs = append(rs.pairs, rp)
		}
	}
	return rs
}

// clone deep-copies the model onto si, an imported copy of the same subgraph.
func (rs *refSub) clone(si *SubgraphIndex) *refSub {
	out := &refSub{si: si, ep: make(map[graph.EdgeID][]*refPath)}
	for _, rp := range rs.pairs {
		cp := &refPair{key: rp.key, lbd: rp.lbd}
		for _, p := range rp.paths {
			q := &refPath{edges: p.edges, vfrags: p.vfrags, dist: p.dist, bound: p.bound}
			for _, e := range q.edges {
				out.ep[e] = append(out.ep[e], q)
			}
			cp.paths = append(cp.paths, q)
		}
		out.pairs = append(out.pairs, cp)
	}
	return out
}

// refresh recomputes every pair's LBD from the subgraph's current weights and
// returns the local pairs whose LBD changed.
func (rs *refSub) refresh() []PairKey {
	local := rs.si.Subgraph().Local
	type unit struct {
		unit, frags float64
		edge        int
	}
	units := make([]unit, local.NumEdges())
	for e := range units {
		w0 := local.InitialWeight(graph.EdgeID(e))
		u := 0.0
		if w0 > 0 {
			u = local.Snapshot().Weight(graph.EdgeID(e)) / w0
		}
		units[e] = unit{unit: u, frags: w0, edge: e}
	}
	// Equal unit weights are taken in edge id order, so the table, and every
	// bound summed from it, is a function of the weights alone.
	sort.Slice(units, func(i, j int) bool {
		a, b := units[i], units[j]
		return a.unit < b.unit || (a.unit == b.unit && a.edge < b.edge)
	})
	prefixFrags := make([]float64, len(units)+1)
	prefixCost := make([]float64, len(units)+1)
	for i, u := range units {
		prefixFrags[i+1] = prefixFrags[i] + u.frags
		prefixCost[i+1] = prefixCost[i] + u.frags*u.unit
	}
	sumSmallest := func(phi float64) float64 {
		n := len(units)
		if n == 0 || phi <= 0 {
			return 0
		}
		i := sort.Search(n, func(i int) bool { return prefixFrags[i+1] >= phi })
		if i == n {
			return prefixCost[n]
		}
		return prefixCost[i] + (phi-prefixFrags[i])*units[i].unit
	}
	var changed []PairKey
	for _, rp := range rs.pairs {
		minDist, maxBound := math.Inf(1), 0.0
		for _, p := range rp.paths {
			if p.dist < minDist {
				minDist = p.dist
			}
			p.bound = sumSmallest(p.vfrags)
			if p.bound > maxBound {
				maxBound = p.bound
			}
		}
		lbd := maxBound
		if maxBound >= minDist {
			lbd = minDist
		}
		if lbd != rp.lbd {
			rp.lbd = lbd
			changed = append(changed, rp.key)
		}
	}
	return changed
}

// refIndex mirrors a whole index.
type refIndex struct {
	x    *Index
	subs []*refSub
}

func newRefIndex(x *Index) *refIndex {
	r := &refIndex{x: x}
	r.resync()
	return r
}

// resync models every subgraph the index has (re)built since the last call;
// subgraphs a topology batch left alone keep their model, distances and all.
func (r *refIndex) resync() {
	part := r.x.Partition()
	subs := make([]*refSub, part.NumSubgraphs())
	for id := range subs {
		si := r.x.SubgraphIndex(partition.SubgraphID(id))
		if id < len(r.subs) && r.subs[id].si == si {
			subs[id] = r.subs[id]
			continue
		}
		subs[id] = newRefSub(si)
		subs[id].refresh()
	}
	r.subs = subs
}

// adjust adds every update's delta of a run to the model's path distances,
// in run order, and returns the subgraphs a nonzero delta reached and the
// number of path adjustments.  Call it before the index applies the run.
func (r *refIndex) adjust(batches [][]graph.WeightUpdate) (map[partition.SubgraphID]bool, int) {
	part := r.x.Partition()
	affected := make(map[partition.SubgraphID]bool)
	written := make(map[graph.EdgeID]float64)
	touched := 0
	for _, batch := range batches {
		for _, u := range batch {
			loc := part.Locate(u.Edge)
			old, ok := written[u.Edge]
			if !ok {
				old = part.Subgraph(loc.Subgraph).Local.Snapshot().Weight(loc.LocalEdge)
			}
			written[u.Edge] = u.NewWeight
			if delta := u.NewWeight - old; delta != 0 {
				affected[loc.Subgraph] = true
				for _, p := range r.subs[loc.Subgraph].ep[loc.LocalEdge] {
					p.dist += delta
					touched++
				}
			}
		}
	}
	return affected, touched
}

// apply runs batch through the index and through the model and returns the
// statistics the model predicts and the index reported.
func (r *refIndex) apply(t *testing.T, batch []graph.WeightUpdate) (want, got UpdateStats) {
	t.Helper()
	part := r.x.Partition()
	want.Epoch = r.x.CurrentView().Epoch() + 1
	affected, touched := r.adjust([][]graph.WeightUpdate{batch})
	got, err := r.x.ApplyUpdates(batch)
	if err != nil {
		t.Fatal(err)
	}
	want.PathsTouched = touched
	want.SubgraphsAffected = len(affected)
	directed := part.Parent().Directed()
	pairs := make(map[PairKey]bool)
	for id := range affected {
		sub := part.Subgraph(id)
		for _, k := range r.subs[id].refresh() {
			pairs[MakePairKey(sub.ToGlobal(k.A), sub.ToGlobal(k.B), directed)] = true
		}
	}
	want.PairsChanged = len(pairs)
	return want, got
}

// replay runs batches through the index's ReplayUpdates and through the
// model, which refreshes each affected subgraph once at the end of the run.
func (r *refIndex) replay(t *testing.T, batches [][]graph.WeightUpdate) {
	t.Helper()
	want := r.x.CurrentView().Epoch() + uint64(len(batches))
	affected, _ := r.adjust(batches)
	got, err := r.x.ReplayUpdates(batches)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ReplayUpdates published epoch %d, want %d", got, want)
	}
	for id := range affected {
		r.subs[id].refresh()
	}
}

// tieBatch sets the local edges of subgraph id whose id has the given parity
// to unit weight u (weight u·w0, where that divides back to u exactly), in
// descending id order, so that many of its edges share one unit weight and
// the unit order rests on the edge id tie-break.  A u below the traffic
// model's 0.7 puts the tied edges first in the order, where every bound sums
// them, and a u whose products with w0 round makes those sums depend on the
// order.  Its first edge is written twice, at another weight first.
func tieBatch(part *partition.Partition, id partition.SubgraphID, u float64, parity int) []graph.WeightUpdate {
	parent := part.Parent()
	edges := part.Subgraph(id).GlobalEdges
	var batch []graph.WeightUpdate
	for le := len(edges) - 1; le >= 0; le-- {
		ge := edges[le]
		if w0 := parent.InitialWeight(ge); le%2 == parity && parent.EdgeAlive(ge) && u*w0/w0 == u {
			batch = append(batch, graph.WeightUpdate{Edge: ge, NewWeight: u * w0})
		}
	}
	return append([]graph.WeightUpdate{{Edge: batch[0].Edge, NewWeight: 3 * batch[0].NewWeight}}, batch...)
}

// check compares every pair's LBD, every path's distance and every skeleton
// weight of the index with the model, bit for bit.
func (r *refIndex) check(t *testing.T, label string) {
	t.Helper()
	part := r.x.Partition()
	directed := part.Parent().Directed()
	mbd := make(map[PairKey]float64)
	for id, rs := range r.subs {
		sub := part.Subgraph(partition.SubgraphID(id))
		si := r.x.SubgraphIndex(partition.SubgraphID(id))
		if si.NumPairs() != len(rs.pairs) {
			t.Fatalf("%s: subgraph %d indexes %d pairs, model %d", label, id, si.NumPairs(), len(rs.pairs))
		}
		for _, rp := range rs.pairs {
			if got := si.LBDLocal(rp.key.A, rp.key.B); math.Float64bits(got) != math.Float64bits(rp.lbd) {
				t.Fatalf("%s: subgraph %d pair %v: LBD %v, model %v", label, id, rp.key, got, rp.lbd)
			}
			bps := si.BoundingPaths(rp.key.A, rp.key.B)
			if len(bps) != len(rp.paths) {
				t.Fatalf("%s: subgraph %d pair %v: %d paths, model %d", label, id, rp.key, len(bps), len(rp.paths))
			}
			for i, bp := range bps {
				if math.Float64bits(bp.Dist) != math.Float64bits(rp.paths[i].dist) {
					t.Fatalf("%s: subgraph %d pair %v path %d: Dist %v, model %v", label, id, rp.key, i, bp.Dist, rp.paths[i].dist)
				}
				if math.Float64bits(bp.Bound) != math.Float64bits(rp.paths[i].bound) {
					t.Fatalf("%s: subgraph %d pair %v path %d: Bound %v, model %v", label, id, rp.key, i, bp.Bound, rp.paths[i].bound)
				}
			}
			gk := MakePairKey(sub.ToGlobal(rp.key.A), sub.ToGlobal(rp.key.B), directed)
			if cur, ok := mbd[gk]; !ok || rp.lbd < cur {
				mbd[gk] = rp.lbd
			}
		}
	}
	skel := r.x.Skeleton()
	sg := skel.Graph()
	if sg.NumEdges() != len(mbd) {
		t.Fatalf("%s: skeleton has %d edges, model %d pairs", label, sg.NumEdges(), len(mbd))
	}
	for e := graph.EdgeID(0); int(e) < sg.NumEdges(); e++ {
		ends := sg.EdgeEndpoints(e)
		a, b := skel.GlobalID(ends.U), skel.GlobalID(ends.V)
		want, ok := mbd[MakePairKey(a, b, directed)]
		if !ok {
			t.Fatalf("%s: skeleton edge (%d,%d) has no pair in the model", label, a, b)
		}
		if got := sg.Snapshot().Weight(e); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: skeleton edge (%d,%d) weight %v, model MBD %v", label, a, b, got, want)
		}
		if got := r.x.MBD(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: MBD(%d,%d) = %v, model %v", label, a, b, got, want)
		}
	}
}

// importCopy exports x into a fresh index over a second partition of a
// second copy of the network (made by network, carrying x's current
// weights), the way a snapshot load does.
func importCopy(t *testing.T, x *Index, network func() *graph.Graph, z int) *Index {
	t.Helper()
	g := network()
	part, err := partition.PartitionGraph(g, z)
	if err != nil {
		t.Fatal(err)
	}
	var y *Index
	err = x.ExportState(func(st ExportedState) error {
		var ups []graph.WeightUpdate
		for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
			if w := st.View.GlobalWeight(e); w != g.Snapshot().Weight(e) {
				ups = append(ups, graph.WeightUpdate{Edge: e, NewWeight: w})
			}
		}
		if err := g.ApplyUpdates(ups); err != nil {
			return err
		}
		if _, err := part.ApplyUpdates(ups); err != nil {
			return err
		}
		imp, err := NewImporter(part, x.Config())
		if err != nil {
			return err
		}
		if err := st.Paths(imp.Add); err != nil {
			return err
		}
		y, err = imp.Finish(st.Epoch)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return y
}

// TestFlatMaintenanceMatchesPerPathRecompute drives the index through Build,
// the benchmark's α = 1 warm-up batch and 40 traffic batches (20 at α 0.05,
// 20 at α 0.2) and holds it, after every step, to the reference model above:
// every LBD, bounding path distance and bound and skeleton weight bit for
// bit, and every UpdateStats exactly.  One cell puts a topology batch in the
// middle (subgraphs it leaves alone are shared with the previous generation,
// so per-generation tables must not live on them); one exports the index half
// way and continues on the imported copy beside the original.  The ties cell
// first gives many edges of one subgraph one unit weight other than 1, then
// replays runs through ReplayUpdates that write such ties again, repeat edges
// within and across batches and move every edge (α = 1), before it exports:
// the merged unit order must equal a fresh sort by (unit weight, edge id) in
// the live index, its runs and the imported copy.  -short runs fewer batches
// and skips the z 200 and plain import cells.
func TestFlatMaintenanceMatchesPerPathRecompute(t *testing.T) {
	directedNet := func() *graph.Graph {
		return testutil.RandomStronglyConnected(rand.New(rand.NewSource(11)), 150, 60)
	}
	ruler := func() *graph.Graph { return rulerNetwork(t) }
	cells := []struct {
		name    string
		network func() *graph.Graph
		z       int
		topo    bool
		export  bool
		ties    bool
		short   bool
	}{
		{name: "ruler/z80", network: ruler, z: 80, short: true},
		{name: "ruler/z200", network: ruler, z: 200},
		{name: "directed/z50", network: directedNet, z: 50, short: true},
		{name: "ruler/z80/topology", network: ruler, z: 80, topo: true},
		{name: "directed/z50/topology", network: directedNet, z: 50, topo: true, short: true},
		{name: "ruler/z80/import", network: ruler, z: 80, export: true},
		{name: "ruler/z80/ties", network: ruler, z: 80, ties: true, export: true, short: true},
	}
	batchesPerAlpha := 20
	if testing.Short() {
		batchesPerAlpha = 4
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skip("covered by the full run")
			}
			g := c.network()
			part, err := partition.PartitionGraph(g, c.z)
			if err != nil {
				t.Fatal(err)
			}
			x, err := Build(part, Config{Xi: 3})
			if err != nil {
				t.Fatal(err)
			}
			refs := []*refIndex{newRefIndex(x)}
			refs[0].check(t, "build")

			step := func(label string, batch []graph.WeightUpdate) {
				t.Helper()
				for _, r := range refs {
					want, got := r.apply(t, batch)
					if want != got {
						t.Fatalf("%s: UpdateStats %+v, model %+v", label, got, want)
					}
					r.check(t, label)
				}
			}
			step("warm", trafficBatches(g, 1, 1, 2)[0])
			if c.ties {
				// The odd edges join the even ones' unit weight in a later
				// refresh, so moved and unmoved edges tie.
				step("ties", tieBatch(part, 0, 0.6, 0))
				step("ties", tieBatch(part, 0, 0.6, 1))
				replay := func(label string, run [][]graph.WeightUpdate) {
					t.Helper()
					refs[0].replay(t, run)
					refs[0].check(t, label)
				}
				replay("run", [][]graph.WeightUpdate{
					tieBatch(part, 1, 0.6, 0),
					trafficBatches(g, 0.05, 1, 40)[0],
					tieBatch(part, 0, 0.65, 1),
					tieBatch(part, 1, 0.6, 1),
				})
				replay("run α1", [][]graph.WeightUpdate{
					trafficBatches(g, 1, 1, 41)[0],
					tieBatch(part, 0, 0.6, 0),
				})
				replay("run", [][]graph.WeightUpdate{tieBatch(part, 0, 0.6, 1), tieBatch(part, 1, 0.65, 0)})
				var long [][]graph.WeightUpdate // longer than the views ViewAt keeps
				for i := range viewRetention + 3 {
					long = append(long, tieBatch(part, partition.SubgraphID(i%3), []float64{0.6, 0.65, 1.5, 0.7}[i%4], i%2))
					long = append(long, trafficBatches(g, 0.05, 1, int64(50+i))[0])
				}
				replay("long run", long)
			}
			seed := int64(3)
			for _, alpha := range []float64{0.05, 0.2} {
				for i := 0; i < batchesPerAlpha; i++ {
					if i == batchesPerAlpha/2 && alpha == 0.2 {
						if c.topo {
							n := graph.VertexID(g.NumVertices())
							up := graph.TopologyUpdate{
								AddVertices: 1,
								InsertEdges: []graph.Edge{{U: 5, V: 90, Weight: 2.5}, {U: n, V: 7, Weight: 3}},
								DeleteEdges: []graph.EdgeID{3, 77, 140},
							}
							if g.Directed() {
								up.InsertEdges = append(up.InsertEdges, graph.Edge{U: 7, V: n, Weight: 3})
							}
							if _, err := x.ApplyTopology(up); err != nil {
								t.Fatal(err)
							}
							refs[0].resync()
							refs[0].check(t, "topology")
						}
						if c.export {
							y := importCopy(t, x, c.network, c.z)
							r := &refIndex{x: y}
							for id, rs := range refs[0].subs {
								r.subs = append(r.subs, rs.clone(y.SubgraphIndex(partition.SubgraphID(id))))
							}
							r.check(t, "import")
							refs = append(refs, r)
						}
					}
					seed++
					step("batch", trafficBatches(x.Partition().Parent(), alpha, 1, seed)[0])
				}
			}
		})
	}
}

// TestLBDTakesLargestBoundWhenRoundingBreaksOrder holds the LBD to the
// largest bound of its pair's paths where rounding makes a larger vfrag count
// get a smaller bound.  Initial weights 0.1 and 0.2 sum to 0.30000000000000004,
// and at unit weights 1 and 1.25 that count's bound, 0.3500000000000001,
// exceeds the bound of the next larger count, 0.35000000000000003: the pair's
// largest vfrag count does not name its largest bound here.
func TestLBDTakesLargestBoundWhenRoundingBreaksOrder(t *testing.T) {
	b := graph.NewBuilder(4, false)
	for i, w0 := range []float64{0.1, 0.2, 5} {
		if _, err := b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), w0); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if err := g.ApplyUpdates([]graph.WeightUpdate{{Edge: 1, NewWeight: 0.25}, {Edge: 2, NewWeight: 6.25}}); err != nil {
		t.Fatal(err)
	}
	part, err := partition.Assemble(g, 4, [][]graph.VertexID{{0, 1, 2, 3}}, [][]graph.EdgeID{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := 0.1, 0.2
	phi := w0 + w1 // in float64, not as an exact constant
	si := newSubgraphIndex(part.Subgraph(0), 1, 2, 8)
	si.addPair(PairKey{A: 0, B: 3})
	verts, edges := []graph.VertexID{0, 1, 2, 3}, []graph.EdgeID{0, 1, 2}
	si.addPath(verts, edges, phi, 100)
	si.addPath(verts, edges, math.Nextafter(phi, 1), 100)
	si.finish()
	bps := si.BoundingPaths(0, 3)
	if !(bps[0].Bound > bps[1].Bound) {
		t.Fatalf("bounds %v, %v: the rounding this test relies on did not happen", bps[0].Bound, bps[1].Bound)
	}
	if got := si.LBDLocal(0, 3); got != bps[0].Bound {
		t.Fatalf("LBD %v, want the largest bound %v", got, bps[0].Bound)
	}
}
