package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"kspdg/internal/baseline"
	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/mfptree"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
	"kspdg/internal/workload"
)

// serverSweep is the list of simulated cluster sizes used by the scaling-out
// experiments (the paper sweeps 2..20 servers).
func (s *Suite) serverSweep() []int { return []int{1, 2, 4, 8} }

// Fig42 reproduces Figure 42: DTLP building time versus the number of
// servers.  Construction parallelism stands in for distributing the subgraph
// indexing work across servers.
func (s *Suite) Fig42() (*Table, error) {
	t := &Table{Columns: []string{"network", "servers", "build time"}}
	for _, name := range workload.DatasetNames() {
		ds, err := workload.BuiltinDataset(name, s.Scale)
		if err != nil {
			return nil, err
		}
		for _, servers := range s.serverSweep() {
			part, err := partition.PartitionGraph(ds.Graph, ds.DefaultZ)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := dtlp.Build(part, dtlp.Config{Xi: s.Xi, Parallelism: servers}); err != nil {
				return nil, err
			}
			t.AddRow(name, servers, time.Since(start))
		}
	}
	t.Notes = append(t.Notes, "building time drops as more servers share the subgraph indexing work (Figure 42)")
	return t, nil
}

// Fig43 reproduces Figure 43: query batch processing time versus the number
// of servers, per dataset.
func (s *Suite) Fig43() (*Table, error) {
	t := &Table{Columns: []string{"network", "servers", "batch time"}}
	for _, name := range workload.DatasetNames() {
		st, err := s.load(name, 0, s.Xi)
		if err != nil {
			return nil, err
		}
		queries := s.queries(st.ds.Graph, s.Nq)
		for _, servers := range s.serverSweep() {
			elapsed, err := s.runCluster(st.index, servers, queries, s.K)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, servers, elapsed)
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Nq=%d, k=%d; processing time falls as servers are added (Figure 43)", s.Nq, s.K))
	return t, nil
}

// Fig44 reproduces Figure 44: processing time versus the number of servers
// for several values of k on NY.
func (s *Suite) Fig44() (*Table, error) {
	st, err := s.load("NY", 0, s.Xi)
	if err != nil {
		return nil, err
	}
	queries := s.queries(st.ds.Graph, s.Nq)
	t := &Table{Columns: []string{"servers", "k", "batch time"}}
	for _, servers := range s.serverSweep() {
		for _, k := range []int{2, 4, 6} {
			elapsed, err := s.runCluster(st.index, servers, queries, k)
			if err != nil {
				return nil, err
			}
			t.AddRow(servers, k, elapsed)
		}
	}
	t.Notes = append(t.Notes, "more servers reduce processing time for every k (Figure 44)")
	return t, nil
}

// Fig45 reproduces Figure 45: scalability of KSP-DG versus the centralized
// baselines when queries are spread over a growing number of servers.  The
// centralized algorithms are modelled as the paper models them: each server
// runs an independent instance and the query batch is split evenly.
func (s *Suite) Fig45() (*Table, error) {
	st, err := s.load("NY", 0, s.Xi)
	if err != nil {
		return nil, err
	}
	queries := s.queries(st.ds.Graph, s.Nq)
	yen := baseline.NewYen(st.ds.Graph)
	find := baseline.NewFindKSP(st.ds.Graph)
	t := &Table{Columns: []string{"servers", "KSP-DG", "FindKSP", "Yen"}}
	for _, servers := range s.serverSweep() {
		kspdgTime, err := s.runCluster(st.index, servers, queries, s.K)
		if err != nil {
			return nil, err
		}
		findTime, err := runPartitionedBaseline(find, queries, s.K, servers)
		if err != nil {
			return nil, err
		}
		yenTime, err := runPartitionedBaseline(yen, queries, s.K, servers)
		if err != nil {
			return nil, err
		}
		t.AddRow(servers, kspdgTime, findTime, yenTime)
	}
	t.Notes = append(t.Notes, "paper: KSP-DG stays fastest for every cluster size; all three curves fall as servers are added (Figure 45; small scales keep the centralized baselines closer)")
	return t, nil
}

// runPartitionedBaseline models running a centralized algorithm independently
// on `servers` machines with the query batch split evenly: the batch time is
// the slowest server's share, i.e. roughly total/servers.
func runPartitionedBaseline(alg baseline.Algorithm, queries []workload.Query, k, servers int) (time.Duration, error) {
	if servers < 1 {
		servers = 1
	}
	var slowest time.Duration
	for w := 0; w < servers; w++ {
		var share []workload.Query
		for i := w; i < len(queries); i += servers {
			share = append(share, queries[i])
		}
		elapsed, err := runBaselineBatch(alg, share, k)
		if err != nil {
			return 0, err
		}
		if elapsed > slowest {
			slowest = elapsed
		}
	}
	return slowest, nil
}

// Fig46 reproduces Figure 46: relative speedups (time on 1 server divided by
// time on N servers) of the three algorithms.
func (s *Suite) Fig46() (*Table, error) {
	st, err := s.load("NY", 0, s.Xi)
	if err != nil {
		return nil, err
	}
	queries := s.queries(st.ds.Graph, s.Nq)
	yen := baseline.NewYen(st.ds.Graph)
	find := baseline.NewFindKSP(st.ds.Graph)

	base := map[string]time.Duration{}
	t := &Table{Columns: []string{"servers", "KSP-DG speedup", "FindKSP speedup", "Yen speedup"}}
	for _, servers := range s.serverSweep() {
		kspdgTime, err := s.runCluster(st.index, servers, queries, s.K)
		if err != nil {
			return nil, err
		}
		findTime, err := runPartitionedBaseline(find, queries, s.K, servers)
		if err != nil {
			return nil, err
		}
		yenTime, err := runPartitionedBaseline(yen, queries, s.K, servers)
		if err != nil {
			return nil, err
		}
		if servers == s.serverSweep()[0] {
			base["kspdg"], base["find"], base["yen"] = kspdgTime, findTime, yenTime
		}
		t.AddRow(servers, speedup(base["kspdg"], kspdgTime), speedup(base["find"], findTime), speedup(base["yen"], yenTime))
	}
	t.Notes = append(t.Notes, "relative speedup grows roughly linearly with the number of servers for every algorithm (Figure 46)")
	return t, nil
}

func speedup(base, now time.Duration) float64 {
	if now <= 0 {
		return 0
	}
	return float64(base) / float64(now)
}

// LoadBalance reports the per-worker load spread (requests, pairs, owned
// subgraphs) of a cluster run, standing in for the CPU/memory balance
// discussion of Section 6.6.
func (s *Suite) LoadBalance() (*Table, error) {
	st, err := s.load("CUSA", 0, s.Xi)
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(st.index, s.Workers)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	queries := s.queries(st.ds.Graph, s.Nq)
	if _, _, err := runBatch(core.NewEngine(st.index, c, s.engineOpts()), queries, s.K, s.Workers); err != nil {
		return nil, err
	}
	var subgraphs, requests, pairs []int
	t := &Table{Columns: []string{"worker", "subgraphs", "requests", "pairs served"}}
	for w, worker := range c.Workers() {
		ws := worker.HandleStats(cluster.StatsRequest{})
		subgraphs = append(subgraphs, ws.Subgraphs)
		requests = append(requests, ws.RequestsServed)
		pairs = append(pairs, ws.PairsServed)
		t.AddRow(w, ws.Subgraphs, ws.RequestsServed, ws.PairsServed)
	}
	t.AddRow("spread", fmt.Sprintf("%.1f%%", spread(subgraphs)*100),
		fmt.Sprintf("%.1f%%", spread(requests)*100), fmt.Sprintf("%.1f%%", spread(pairs)*100))
	t.Notes = append(t.Notes, "the paper reports <6% CPU and <2% memory spread across servers; the simulated spread is shown in the last row")
	return t, nil
}

// AblationVfrag compares the tightness of the vfrag-based lower bound
// distances against the simpler "m smallest edge weights" bound the paper
// starts from in Section 3.4.
func (s *Suite) AblationVfrag() (*Table, error) {
	st, err := s.load("NY", 0, s.Xi)
	if err != nil {
		return nil, err
	}
	// Perturb weights so bounds separate from exact distances.
	batch := s.perturb(st.ds.Graph, 0.5, 0.6, s.Seed)
	if _, err := st.index.ApplyUpdates(batch); err != nil {
		return nil, err
	}
	var vfragRatios, edgeRatios []float64
	for _, sg := range st.part.Subgraphs {
		si := st.index.SubgraphIndex(sg.ID)
		for i := 0; i < len(sg.Boundary); i++ {
			for j := i + 1; j < len(sg.Boundary); j++ {
				la, _ := sg.ToLocal(sg.Boundary[i])
				lb, _ := sg.ToLocal(sg.Boundary[j])
				trueDist := shortest.ShortestDistance(sg.Local.Snapshot(), la, lb, nil)
				if math.IsInf(trueDist, 1) || trueDist == 0 {
					continue
				}
				lbd := si.LBDLocal(la, lb)
				if !math.IsInf(lbd, 1) {
					vfragRatios = append(vfragRatios, lbd/trueDist)
				}
				if eb := edgeCountBound(sg, la, lb); eb > 0 {
					edgeRatios = append(edgeRatios, eb/trueDist)
				}
			}
		}
	}
	t := &Table{Columns: []string{"bound", "pairs", "mean tightness (bound/true)", "p10", "p90"}}
	addStats := func(label string, ratios []float64) {
		if len(ratios) == 0 {
			t.AddRow(label, 0, 0.0, 0.0, 0.0)
			return
		}
		sort.Float64s(ratios)
		mean := 0.0
		for _, r := range ratios {
			mean += r
		}
		mean /= float64(len(ratios))
		t.AddRow(label, len(ratios), mean, ratios[len(ratios)/10], ratios[len(ratios)*9/10])
	}
	addStats("vfrag (DTLP)", vfragRatios)
	addStats("m smallest edge weights", edgeRatios)
	t.Notes = append(t.Notes, "tightness closer to 1.0 is better; vfrag bounds dominate the edge-count bounds, motivating Section 3.4")
	return t, nil
}

// edgeCountBound computes the first-attempt bound of Section 3.4: the number
// of edges m on the fewest-edge path between the pair, times the m smallest
// edge weights of the subgraph.
func edgeCountBound(sg *partition.Subgraph, la, lb graph.VertexID) float64 {
	hop := &shortest.Options{Weight: func(graph.EdgeID) float64 { return 1 }}
	local := sg.Local.Snapshot()
	p, ok := shortest.ShortestPath(local, la, lb, hop)
	if !ok {
		return 0
	}
	m := p.Len()
	weights := make([]float64, local.NumEdges())
	for e := 0; e < local.NumEdges(); e++ {
		weights[e] = local.Weight(graph.EdgeID(e))
	}
	sort.Float64s(weights)
	if m > len(weights) {
		m = len(weights)
	}
	var sum float64
	for i := 0; i < m; i++ {
		sum += weights[i]
	}
	return sum
}

// AblationMFPTree compares the flat EP-Index against the LSH+MFP-tree
// compressed representation: storage entries and the cost of visiting the
// ids of the bounding paths crossing every edge.
func (s *Suite) AblationMFPTree() (*Table, error) {
	st, err := s.load("FLA", 0, s.Xi)
	if err != nil {
		return nil, err
	}
	t := &Table{Columns: []string{"representation", "entries/nodes", "lookup time (all edges)"}}
	totalFlat, totalCompressed := 0, 0
	var flatTime, compressedTime time.Duration
	for _, sg := range st.part.Subgraphs {
		si := st.index.SubgraphIndex(sg.ID)
		sets := si.PathSets()
		if len(sets) == 0 {
			continue
		}
		totalFlat += si.EPIndexEntries()
		start := time.Now()
		for e := range sets {
			for range sets[e] {
			}
		}
		flatTime += time.Since(start)

		forest, err := mfptree.Build(sets, mfptree.Config{Seed: uint64(s.Seed)})
		if err != nil {
			return nil, err
		}
		totalCompressed += forest.Stats().PathNodes
		start = time.Now()
		for e := range sets {
			forest.VisitPathsForEdge(e, func(mfptree.PathID) {})
		}
		compressedTime += time.Since(start)
	}
	t.AddRow("EP-Index (flat)", totalFlat, flatTime)
	t.AddRow("MFP-tree (LSH groups)", totalCompressed, compressedTime)
	if totalFlat > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("compression ratio: %.2f (path nodes / flat entries)", float64(totalCompressed)/float64(totalFlat)))
	}
	return t, nil
}
