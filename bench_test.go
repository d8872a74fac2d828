// Package kspdg's top-level benchmarks: one testing.B benchmark per
// table/figure group of the paper's evaluation, each exercising the kernel
// that dominates that experiment.  The full parameter sweeps (every series of
// every figure) are produced by cmd/kspbench; these benchmarks give per-
// operation costs that `go test -bench` can track over time.
package kspdg_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kspdg/internal/baseline"
	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/fanout"
	"kspdg/internal/graph"
	"kspdg/internal/mfptree"
	"kspdg/internal/partition"
	"kspdg/internal/serve"
	"kspdg/internal/shortest"
	"kspdg/internal/workload"
)

// benchSetup caches per-dataset fixtures across benchmarks.
type benchSetup struct {
	ds    *workload.Dataset
	part  *partition.Partition
	index *dtlp.Index
}

var setups = map[string]*benchSetup{}

func load(b *testing.B, name string) *benchSetup {
	b.Helper()
	if s, ok := setups[name]; ok {
		return s
	}
	ds, err := workload.BuiltinDataset(name, workload.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.PartitionGraph(ds.Graph, ds.DefaultZ)
	if err != nil {
		b.Fatal(err)
	}
	index, err := dtlp.Build(part, dtlp.Config{Xi: 3})
	if err != nil {
		b.Fatal(err)
	}
	s := &benchSetup{ds: ds, part: part, index: index}
	setups[name] = s
	return s
}

// BenchmarkTable1PartitionStats covers Table 1: partitioning a dataset and
// computing its statistics.
func BenchmarkTable1PartitionStats(b *testing.B) {
	ds, err := workload.BuiltinDataset("NY", workload.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part, err := partition.PartitionGraph(ds.Graph, ds.DefaultZ)
		if err != nil {
			b.Fatal(err)
		}
		_ = part.ComputeStats()
	}
}

// BenchmarkTable3SkeletonSize covers Table 3: skeleton size under a varying z.
func BenchmarkTable3SkeletonSize(b *testing.B) {
	ds, err := workload.BuiltinDataset("COL", workload.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	zs := []int{12, 24, 48}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := zs[i%len(zs)]
		part, err := partition.PartitionGraph(ds.Graph, z)
		if err != nil {
			b.Fatal(err)
		}
		_ = len(part.BoundaryVertices())
	}
}

// BenchmarkFig15to18DTLPBuild covers Figures 15-18: DTLP construction per
// dataset.
func BenchmarkFig15to18DTLPBuild(b *testing.B) {
	for _, name := range workload.DatasetNames() {
		b.Run(name, func(b *testing.B) {
			ds, err := workload.BuiltinDataset(name, workload.ScaleTiny)
			if err != nil {
				b.Fatal(err)
			}
			part, err := partition.PartitionGraph(ds.Graph, ds.DefaultZ)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dtlp.Build(part, dtlp.Config{Xi: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig19to23DTLPMaintenance covers Figures 19-23: index maintenance
// under one traffic snapshot (α=50%, τ=50%).
func BenchmarkFig19to23DTLPMaintenance(b *testing.B) {
	s := load(b, "NY")
	tm := workload.NewTrafficModel(0.5, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := tm.Derive(s.ds.Graph.NumEdges(), s.ds.Graph.Directed(), s.ds.Graph.Snapshot().Weight)
		b.StartTimer()
		if _, err := s.index.ApplyUpdates(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig21UpdateThroughput covers Figure 21: per-update maintenance
// latency.
func BenchmarkFig21UpdateThroughput(b *testing.B) {
	s := load(b, "COL")
	g := s.ds.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := graph.EdgeID(i % g.NumEdges())
		w := g.Snapshot().Weight(e)*1.1 + 0.1
		if _, err := s.index.ApplyUpdates([]graph.WeightUpdate{{Edge: e, NewWeight: w}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig24to27Iterations covers Figures 24-27: a full KSP-DG query
// (whose cost is dominated by the number of iterations) at a larger k.
func BenchmarkFig24to27Iterations(b *testing.B) {
	s := load(b, "NY")
	engine := core.NewEngine(s.index, nil, core.Options{})
	qs := workload.NewQueryGenerator(s.ds.Graph.NumVertices(), 5).Batch(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := engine.QueryViewCtx(context.Background(), nil, q.Source, q.Target, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig28to32Query covers Figures 28-32: single KSP-DG queries per
// dataset at the default k.
func BenchmarkFig28to32Query(b *testing.B) {
	for _, name := range workload.DatasetNames() {
		b.Run(name, func(b *testing.B) {
			s := load(b, name)
			engine := core.NewEngine(s.index, nil, core.Options{})
			qs := workload.NewQueryGenerator(s.ds.Graph.NumVertices(), 5).Batch(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := engine.QueryViewCtx(context.Background(), nil, q.Source, q.Target, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig33to34XiTau covers Figures 33-34: query cost with a single
// bounding path per pair (the weakest ξ), where iteration counts are highest.
func BenchmarkFig33to34XiTau(b *testing.B) {
	ds, err := workload.BuiltinDataset("NY", workload.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.PartitionGraph(ds.Graph, ds.DefaultZ)
	if err != nil {
		b.Fatal(err)
	}
	index, err := dtlp.Build(part, dtlp.Config{Xi: 1})
	if err != nil {
		b.Fatal(err)
	}
	engine := core.NewEngine(index, nil, core.Options{})
	qs := workload.NewQueryGenerator(ds.Graph.NumVertices(), 5).Batch(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := engine.QueryViewCtx(context.Background(), nil, q.Source, q.Target, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig35to39Baselines covers Figures 35-39: the same query answered
// by KSP-DG, FindKSP and Yen.
func BenchmarkFig35to39Baselines(b *testing.B) {
	s := load(b, "FLA")
	engine := core.NewEngine(s.index, nil, core.Options{})
	yen := baseline.NewYen(s.ds.Graph)
	find := baseline.NewFindKSP(s.ds.Graph)
	qs := workload.NewQueryGenerator(s.ds.Graph.NumVertices(), 5).Batch(64)
	b.Run("KSP-DG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, err := engine.QueryViewCtx(context.Background(), nil, q.Source, q.Target, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FindKSP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, err := find.Query(q.Source, q.Target, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Yen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, err := yen.Query(q.Source, q.Target, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig40to41CANDS covers Figures 40-41: CANDS query and maintenance
// versus KSP-DG's.
func BenchmarkFig40to41CANDS(b *testing.B) {
	s := load(b, "NY")
	cands, err := baseline.NewCANDS(s.ds.Graph, s.ds.DefaultZ)
	if err != nil {
		b.Fatal(err)
	}
	engine := core.NewEngine(s.index, nil, core.Options{})
	qs := workload.NewQueryGenerator(s.ds.Graph.NumVertices(), 5).Batch(64)
	b.Run("CANDS-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, err := cands.Query(q.Source, q.Target, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("KSP-DG-query-k1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, err := engine.QueryViewCtx(context.Background(), nil, q.Source, q.Target, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	tm := workload.NewTrafficModel(0.5, 0.5, 9)
	b.Run("CANDS-maintenance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			batch := tm.Derive(s.ds.Graph.NumEdges(), s.ds.Graph.Directed(), s.ds.Graph.Snapshot().Weight)
			if err := s.ds.Graph.ApplyUpdates(batch); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := cands.ApplyUpdates(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("KSP-DG-maintenance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			batch := tm.Derive(s.ds.Graph.NumEdges(), s.ds.Graph.Directed(), s.ds.Graph.Snapshot().Weight)
			b.StartTimer()
			if _, err := s.index.ApplyUpdates(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig42to46Scaling covers Figures 42-46: a fixed query batch
// processed on clusters of growing size.
func BenchmarkFig42to46Scaling(b *testing.B) {
	s := load(b, "CUSA")
	queries := workload.NewQueryGenerator(s.ds.Graph.NumVertices(), 5).Batch(16)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			c, err := cluster.New(s.index, workers)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			engine := core.NewEngine(s.index, c, core.Options{})
			errs := make([]error, len(queries))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fanout.Do(len(queries), workers, func(j int) {
					_, errs[j] = engine.QueryViewCtx(context.Background(), nil, queries[j].Source, queries[j].Target, 2)
				})
				if err := errors.Join(errs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMFPTree covers the MFP-tree ablation: compressing one
// subgraph's EP-Index and answering edge lookups from the compressed forest.
func BenchmarkAblationMFPTree(b *testing.B) {
	s := load(b, "FLA")
	var sets map[graph.EdgeID][]int
	for _, sg := range s.part.Subgraphs {
		ps := s.index.SubgraphIndex(sg.ID).PathSets()
		if len(ps) > len(sets) {
			sets = ps
		}
	}
	if len(sets) == 0 {
		b.Skip("no EP-Index entries")
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mfptree.Build(sets, mfptree.Config{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	forest, err := mfptree.Build(sets, mfptree.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	edges := make([]graph.EdgeID, 0, len(sets))
	for e := range sets {
		edges = append(edges, e)
	}
	b.Run("lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			forest.VisitPathsForEdge(edges[i%len(edges)], func(mfptree.PathID) {})
		}
	})
}

// BenchmarkConcurrentQueries measures the serve layer under the mixed regime
// the paper targets: a pool of concurrent queries answered against immutable
// index epochs while weight-update batches land in flight, each publishing a
// new epoch (and invalidating the per-query result cache).
func BenchmarkConcurrentQueries(b *testing.B) {
	ds, err := workload.BuiltinDataset("NY", workload.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.PartitionGraph(ds.Graph, ds.DefaultZ)
	if err != nil {
		b.Fatal(err)
	}
	index, err := dtlp.Build(part, dtlp.Config{Xi: 3})
	if err != nil {
		b.Fatal(err)
	}
	// MaxIterations keeps the rare pathological query from dominating the
	// measurement; the benchmark tracks scheduling throughput, exactness is
	// covered by internal/difftest.
	srv := serve.New(index, nil, serve.Options{Engine: core.Options{MaxIterations: 200}})
	defer srv.Close()

	qs := workload.NewQueryGenerator(ds.Graph.NumVertices(), 7).Batch(64)
	tm := workload.NewTrafficModel(0.1, 0.3, 3)

	// Background writer: one update batch every few milliseconds until the
	// benchmark stops.
	done := make(chan struct{})
	var updater sync.WaitGroup
	updater.Add(1)
	go func() {
		defer updater.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				batch := tm.Derive(ds.Graph.NumEdges(), ds.Graph.Directed(), ds.Graph.Snapshot().Weight)
				if _, err := srv.ApplyUpdates(context.Background(), batch); err != nil {
					b.Error(err)
					return
				}
			}
		}
	}()

	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := qs[int(next.Add(1))%len(qs)]
			if _, err := srv.Query(context.Background(), serve.Request{Src: q.Source, Dst: q.Target, K: 4}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(done)
	updater.Wait()
	st := srv.Stats()
	b.ReportMetric(float64(st.CacheHits)/float64(max(st.QueriesServed, 1)), "cachehit/query")
	b.ReportMetric(float64(st.Epoch), "epochs")
}

// BenchmarkAblationVfragYen covers the vfrag ablation indirectly: the cost of
// enumerating bounding paths under the vfrag metric during index builds is
// dominated by Yen on subgraphs, measured here on the largest subgraph.
func BenchmarkAblationVfragYen(b *testing.B) {
	s := load(b, "NY")
	var sub *partition.Subgraph
	for _, sg := range s.part.Subgraphs {
		if sub == nil || sg.NumVertices() > sub.NumVertices() {
			sub = sg
		}
	}
	if sub == nil || len(sub.Boundary) < 2 {
		b.Skip("no suitable subgraph")
	}
	la, _ := sub.ToLocal(sub.Boundary[0])
	lb, _ := sub.ToLocal(sub.Boundary[1])
	vfrag := &shortest.Options{Weight: sub.Local.InitialWeight}
	hop := &shortest.Options{Weight: func(graph.EdgeID) float64 { return 1 }}
	b.Run("vfrag-metric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = shortest.KShortestDistinctLengths(sub.Local.Snapshot(), la, lb, 3, 11, vfrag)
		}
	})
	b.Run("edge-count-metric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = shortest.KShortestDistinctLengths(sub.Local.Snapshot(), la, lb, 3, 11, hop)
		}
	})
}
