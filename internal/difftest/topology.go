package difftest

import (
	"context"
	"math/rand"
	"testing"

	"kspdg/internal/baseline"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/serve"
	"kspdg/internal/store"
	"kspdg/internal/testutil"
)

// TopologyParams describes a topology-mutation differential run: the engine
// is audited against an exact Yen oracle rebuilt from scratch on the replaced
// parent graph after every topology epoch.
type TopologyParams struct {
	// Directed, K, Xi, N, Extra, Z, Queries and Seed mirror Params.
	Directed           bool
	K, Xi, N, Extra, Z int
	Queries            int
	Seed               int64
	// ExtraEpochs is the number of additional randomized topology epochs
	// applied after the three targeted ones (the severing delete, the
	// shortcut insert and the subgraph opening).  Zero means 2, so a default
	// run covers at least five topology-mutation epochs.
	ExtraEpochs int
	// Recover, when set, persists every batch through a store in a temp
	// directory, then simulates a crash after the final round: the index is
	// recovered from snapshot + WAL and every audited query is re-run on the
	// recovered index, requiring bit-identical distances to the live run.
	Recover bool
	// Provider mirrors Params.Provider: it selects the refine transport the
	// serve layer fans out on (nil = local).  No topology hook is wired, so
	// the transport must follow the index's partition on its own.
	Provider func(tb testing.TB, x *dtlp.Index) (core.PartialProvider, func())
}

// auditedQuery is one live-run outcome kept for the post-recovery replay.
type auditedQuery struct {
	s, t graph.VertexID
	dist []float64
}

// CheckTopology runs one topology differential cell.  The event sequence is:
//
//  1. an initial audit round on the built index,
//  2. a targeted delete severing an edge of a previously returned top-k path
//     (with a weight batch landing first, so WAL records interleave kinds),
//  3. a targeted insert creating a strictly shorter alternative between a
//     previously queried pair,
//  4. a targeted insert that opens a subgraph: two new vertices joined to
//     each other and to that pair,
//  5. ExtraEpochs randomized batches mixing vertex additions, edge inserts,
//     edge deletes and vertex deletes.
//
// After every epoch the Yen oracle is rebuilt on the index's replaced parent
// graph and the audit round repeats: sorted path-length multisets must agree.
// With Recover set the run then crashes and recovers from snapshot + WAL, and
// every audited query must reproduce the live run's distances bit for bit.
func CheckTopology(tb testing.TB, p TopologyParams) {
	tb.Helper()
	base := Params{Directed: p.Directed, K: p.K, Xi: p.Xi, N: p.N, Extra: p.Extra,
		Z: p.Z, Queries: p.Queries, Seed: p.Seed}.withDefaults()
	if p.ExtraEpochs == 0 {
		p.ExtraEpochs = 2
	}
	rng := rand.New(rand.NewSource(base.Seed))
	g := base.buildGraph(rng)
	part, err := partition.PartitionGraph(g, base.Z)
	if err != nil {
		tb.Fatalf("partition: %v", err)
	}
	x, err := dtlp.Build(part, dtlp.Config{Xi: base.Xi})
	if err != nil {
		tb.Fatalf("dtlp build: %v", err)
	}
	opts := serve.Options{Workers: 2}
	var st *store.Store
	if p.Recover {
		st, err = store.Open(tb.TempDir(), store.Options{})
		if err != nil {
			tb.Fatalf("store open: %v", err)
		}
		if _, err := st.SaveSnapshot(x); err != nil {
			tb.Fatalf("base snapshot: %v", err)
		}
		opts.Store = st
	}
	var provider core.PartialProvider
	if p.Provider != nil {
		var cleanup func()
		provider, cleanup = p.Provider(tb, x)
		defer cleanup()
	}
	srv := serve.New(x, provider, opts)
	defer srv.Close()

	var audited []auditedQuery
	// audit checks base.Queries random pairs plus any targeted extras against
	// exact Yen on the index's current parent graph — re-resolved every round
	// because topology epochs replace it copy-on-write.  Only the most recent
	// round's outcomes are kept: the post-recovery replay runs against the
	// final epoch, so earlier rounds' distances would not be comparable.
	audit := func(label string, targeted ...[2]graph.VertexID) {
		audited = audited[:0]
		cur := x.Partition().Parent()
		yen := baseline.NewYen(cur)
		pairs := make([][2]graph.VertexID, 0, base.Queries+len(targeted))
		for q := 0; q < base.Queries; q++ {
			s := graph.VertexID(rng.Intn(base.N))
			t := graph.VertexID(rng.Intn(base.N))
			if s != t {
				pairs = append(pairs, [2]graph.VertexID{s, t})
			}
		}
		pairs = append(pairs, targeted...)
		for _, pr := range pairs {
			s, t := pr[0], pr[1]
			got, err := srv.Query(context.Background(), serve.Request{Src: s, Dst: t, K: base.K})
			if err != nil {
				tb.Fatalf("%s: KSP-DG query(%d,%d,%d): %v", label, s, t, base.K, err)
			}
			want, err := yen.Query(s, t, base.K)
			if err != nil {
				tb.Fatalf("%s: Yen query(%d,%d,%d): %v", label, s, t, base.K, err)
			}
			gl, wl := lengths(got.Paths), lengths(want)
			switch {
			case got.Converged && got.BoundGap > 0:
				if !withinGap(gl, wl, got.BoundGap) {
					tb.Errorf("%s: query(%d,%d,%d) violated its near-exactness claim: KSP-DG lengths %v not within bound gap %g of Yen lengths %v",
						label, s, t, base.K, gl, got.BoundGap, wl)
				}
			case !sameLengths(gl, wl):
				tb.Errorf("%s: query(%d,%d,%d): KSP-DG lengths %v != Yen lengths %v",
					label, s, t, base.K, gl, wl)
			}
			for i, path := range got.Paths {
				if err := path.Validate(cur.Snapshot()); err != nil {
					tb.Errorf("%s: query(%d,%d,%d) path %d invalid: %v", label, s, t, base.K, i, err)
				}
			}
			audited = append(audited, auditedQuery{s: s, t: t, dist: rawDists(got.Paths)})
		}
	}

	audit("initial")

	// Epoch 1 — a delete severing a previously returned top-k path.  A weight
	// batch lands first so the WAL interleaves record kinds before the first
	// topology record.
	s0 := graph.VertexID(rng.Intn(base.N))
	t0 := graph.VertexID(rng.Intn(base.N))
	for s0 == t0 {
		t0 = graph.VertexID(rng.Intn(base.N))
	}
	pre, err := srv.Query(context.Background(), serve.Request{Src: s0, Dst: t0, K: base.K})
	if err != nil || len(pre.Paths) == 0 {
		tb.Fatalf("pre-delete query(%d,%d,%d): %v (paths %d)", s0, t0, base.K, err, len(pre.Paths))
	}
	if _, err := srv.ApplyUpdates(context.Background(), testutil.PerturbWeights(x.Partition().Parent(), rng, 0.3, 0.4, 0.1)); err != nil {
		tb.Fatalf("interleaved weight batch: %v", err)
	}
	top := pre.Paths[0]
	cur := x.Partition().Parent()
	sever := severingEdge(cur, top)
	if _, err := srv.ApplyTopology(context.Background(), graph.TopologyUpdate{DeleteEdges: []graph.EdgeID{sever}}); err != nil {
		tb.Fatalf("severing delete: %v", err)
	}
	audit("after-severing-delete", [2]graph.VertexID{s0, t0})

	// Epoch 2 — an insert creating a strictly shorter alternative for the
	// same pair: a direct shortcut cheaper than the pre-delete best distance
	// (which can only have grown or disappeared since).
	shortcut := pre.Paths[0].Dist / 2
	if shortcut <= 0 {
		shortcut = 0.25
	}
	if _, err := srv.ApplyTopology(context.Background(), graph.TopologyUpdate{
		InsertEdges: []graph.Edge{{U: s0, V: t0, Weight: shortcut}},
	}); err != nil {
		tb.Fatalf("shortcut insert: %v", err)
	}
	res, err := srv.Query(context.Background(), serve.Request{Src: s0, Dst: t0, K: base.K})
	if err != nil || len(res.Paths) == 0 {
		tb.Fatalf("post-insert query(%d,%d,%d): %v", s0, t0, base.K, err)
	}
	if res.Paths[0].Dist > shortcut+1e-9 {
		tb.Errorf("inserted shortcut (%g) did not become the shortest path: got %g", shortcut, res.Paths[0].Dist)
	}
	audit("after-shortcut-insert", [2]graph.VertexID{s0, t0})

	// Epoch 3 — two new vertices a-b, wired to s0 and t0: the edge between
	// them lands in a subgraph of its own, so the epoch opens one.
	cur = x.Partition().Parent()
	a := graph.VertexID(cur.NumVertices())
	b := a + 1
	opening := graph.TopologyUpdate{AddVertices: 2}
	for _, e := range []graph.Edge{{U: a, V: b, Weight: 1}, {U: b, V: s0, Weight: 2}, {U: a, V: t0, Weight: 3}} {
		opening.InsertEdges = append(opening.InsertEdges, e)
		if cur.Directed() {
			opening.InsertEdges = append(opening.InsertEdges, graph.Edge{U: e.V, V: e.U, Weight: e.Weight})
		}
	}
	before := x.Partition().NumSubgraphs()
	if _, err := srv.ApplyTopology(context.Background(), opening); err != nil {
		tb.Fatalf("subgraph-opening insert: %v", err)
	}
	if got := x.Partition().NumSubgraphs(); got <= before {
		tb.Fatalf("subgraph-opening insert left %d subgraphs (%d before)", got, before)
	}
	audit("after-subgraph-opening", [2]graph.VertexID{a, b}, [2]graph.VertexID{a, s0}, [2]graph.VertexID{s0, t0})

	// Remaining epochs — randomized mixed batches, each followed by a weight
	// batch so both WAL record kinds keep interleaving.
	for e := 0; e < p.ExtraEpochs; e++ {
		up := randomTopologyBatch(rng, x.Partition().Parent())
		if _, err := srv.ApplyTopology(context.Background(), up); err != nil {
			tb.Fatalf("random topology epoch %d: %v", e, err)
		}
		if batch := testutil.PerturbWeights(x.Partition().Parent(), rng, 0.25, 0.4, 0.1); len(batch) > 0 {
			if _, err := srv.ApplyUpdates(context.Background(), batch); err != nil {
				tb.Fatalf("weight batch after topology epoch %d: %v", e, err)
			}
		}
		audit("after-random-topology")
	}

	if !p.Recover {
		return
	}
	// Crash: the server dies without a final snapshot, so recovery replays
	// the interleaved weight + topology WAL on top of the base snapshot.
	srv.Close()
	if err := st.Close(); err != nil {
		tb.Fatalf("store close: %v", err)
	}
	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		tb.Fatalf("store reopen: %v", err)
	}
	defer st2.Close()
	rec, err := st2.Recover()
	if err != nil {
		tb.Fatalf("recover: %v", err)
	}
	if want := x.CurrentView().Epoch(); rec.Epoch != want {
		tb.Fatalf("recovered epoch %d, live epoch %d", rec.Epoch, want)
	}
	srv2 := serve.New(rec.Index, nil, serve.Options{Workers: 2})
	defer srv2.Close()
	for _, aq := range audited {
		res, err := srv2.Query(context.Background(), serve.Request{Src: aq.s, Dst: aq.t, K: base.K})
		if err != nil {
			tb.Fatalf("recovered query(%d,%d,%d): %v", aq.s, aq.t, base.K, err)
		}
		got := rawDists(res.Paths)
		if len(got) != len(aq.dist) {
			tb.Errorf("recovered query(%d,%d,%d): %d paths, live run had %d", aq.s, aq.t, base.K, len(got), len(aq.dist))
			continue
		}
		for i := range got {
			if got[i] != aq.dist[i] { // bit-identical, no tolerance
				tb.Errorf("recovered query(%d,%d,%d) path %d: distance %v != live %v",
					aq.s, aq.t, base.K, i, got[i], aq.dist[i])
			}
		}
	}
}

// severingEdge picks the edge of the top path to delete: the first hop whose
// endpoints both keep degree >= 3 afterwards (so the graph usually stays
// connected and the pair keeps alternative routes), falling back to the
// middle hop.  Even if the fallback disconnects the pair, the audit stays
// valid — engine and oracle must agree on the severed graph either way.
func severingEdge(cur *graph.Graph, top graph.Path) graph.EdgeID {
	deg := make(map[graph.VertexID]int)
	for e := 0; e < cur.NumEdges(); e++ {
		if !cur.EdgeAlive(graph.EdgeID(e)) {
			continue
		}
		ends := cur.EdgeEndpoints(graph.EdgeID(e))
		deg[ends.U]++
		deg[ends.V]++
	}
	for i := 0; i+1 < len(top.Vertices); i++ {
		u, v := top.Vertices[i], top.Vertices[i+1]
		if deg[u] >= 3 && deg[v] >= 3 {
			if e, ok := cur.EdgeBetween(u, v); ok {
				return e
			}
		}
	}
	mid := (len(top.Vertices) - 1) / 2
	e, _ := cur.EdgeBetween(top.Vertices[mid], top.Vertices[mid+1])
	return e
}

// rawDists returns path distances in rank order, unsorted and untruncated —
// the bitwise replay contract of the recovery audit.
func rawDists(paths []graph.Path) []float64 {
	out := make([]float64, len(paths))
	for i, p := range paths {
		out[i] = p.Dist
	}
	return out
}

// randomTopologyBatch derives a small mixed mutation batch against cur: with
// the fixed application order (add vertices, delete vertices, delete edges,
// insert edges) the batch may delete a vertex and wire a fresh one into the
// same neighbourhood.
func randomTopologyBatch(rng *rand.Rand, cur *graph.Graph) graph.TopologyUpdate {
	up := graph.TopologyUpdate{AddVertices: 1}
	fresh := graph.VertexID(cur.NumVertices())
	// Wire the fresh vertex to two distinct live endpoints.
	var anchors []graph.VertexID
	for attempts := 0; len(anchors) < 2 && attempts < 256; attempts++ {
		e := graph.EdgeID(rng.Intn(cur.NumEdges()))
		if !cur.EdgeAlive(e) {
			continue
		}
		v := cur.EdgeEndpoints(e).U
		dup := false
		for _, a := range anchors {
			if a == v {
				dup = true
			}
		}
		if !dup {
			anchors = append(anchors, v)
		}
	}
	for _, a := range anchors {
		w := 1 + rng.Float64()*5
		up.InsertEdges = append(up.InsertEdges, graph.Edge{U: fresh, V: a, Weight: w})
		if cur.Directed() {
			up.InsertEdges = append(up.InsertEdges, graph.Edge{U: a, V: fresh, Weight: w})
		}
	}
	// Delete one live edge whose endpoints both keep degree >= 2, so the
	// graph stays connected for the oracle comparison.
	deg := make(map[graph.VertexID]int)
	for e := 0; e < cur.NumEdges(); e++ {
		if !cur.EdgeAlive(graph.EdgeID(e)) {
			continue
		}
		ends := cur.EdgeEndpoints(graph.EdgeID(e))
		deg[ends.U]++
		deg[ends.V]++
	}
	for attempts := 0; attempts < 256; attempts++ {
		e := graph.EdgeID(rng.Intn(cur.NumEdges()))
		if !cur.EdgeAlive(e) {
			continue
		}
		ends := cur.EdgeEndpoints(e)
		if deg[ends.U] >= 3 && deg[ends.V] >= 3 {
			up.DeleteEdges = append(up.DeleteEdges, e)
			break
		}
	}
	return up
}
