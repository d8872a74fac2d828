package bench

import (
	"fmt"
	"time"

	"kspdg/internal/baseline"
	"kspdg/internal/cluster"
	"kspdg/internal/workload"
)

// comparisonVsNq reproduces Figures 35-38: total processing time of KSP-DG,
// FindKSP, and Yen for growing numbers of queries on one dataset.
func (s *Suite) comparisonVsNq(name, fig string) (*Table, error) {
	st, err := s.load(name, 0, s.Xi)
	if err != nil {
		return nil, err
	}
	// KSP-DG runs on the simulated cluster (its intended deployment); the
	// centralized baselines process the batch sequentially, as in the paper.
	c, err := cluster.New(st.index, cluster.Config{NumWorkers: s.Workers, QueryBolts: s.Workers})
	if err != nil {
		return nil, err
	}
	yen := baseline.NewYen(st.ds.Graph)
	find := baseline.NewFindKSP(st.ds.Graph)
	t := &Table{Columns: []string{"Nq", fmt.Sprintf("KSP-DG (%d workers)", s.Workers), "FindKSP", "Yen"}}
	for _, factor := range []int{1, 2, 4} {
		nq := s.Nq / 2 * factor
		queries := s.queries(st.ds.Graph, nq)

		kspdgTime, _, err := runBatchCluster(c, queries, s.K)
		if err != nil {
			return nil, err
		}
		findTime, err := runBaselineBatch(find, queries, s.K)
		if err != nil {
			return nil, err
		}
		yenTime, err := runBaselineBatch(yen, queries, s.K)
		if err != nil {
			return nil, err
		}
		t.AddRow(nq, kspdgTime, findTime, yenTime)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("k=%d, ξ=%d; the paper reports KSP-DG winning with the flattest growth — the crossover needs large networks (Figures 35-38)", s.K, s.Xi))
	return t, nil
}

// runBaselineBatch processes a query batch with a baseline algorithm.
func runBaselineBatch(alg baseline.Algorithm, queries []workload.Query, k int) (time.Duration, error) {
	start := time.Now()
	for _, q := range queries {
		if _, err := alg.Query(q.Source, q.Target, k); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// Fig39 reproduces Figure 39: comparison of the three algorithms as k grows
// on the FLA dataset.
func (s *Suite) Fig39() (*Table, error) {
	st, err := s.load("FLA", 0, s.Xi)
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(st.index, cluster.Config{NumWorkers: s.Workers, QueryBolts: s.Workers})
	if err != nil {
		return nil, err
	}
	yen := baseline.NewYen(st.ds.Graph)
	find := baseline.NewFindKSP(st.ds.Graph)
	queries := s.queries(st.ds.Graph, s.Nq/2)
	t := &Table{Columns: []string{"k", fmt.Sprintf("KSP-DG (%d workers)", s.Workers), "FindKSP", "Yen"}}
	for _, k := range []int{2, 4, 6, 8} {
		kspdgTime, _, err := runBatchCluster(c, queries, k)
		if err != nil {
			return nil, err
		}
		findTime, err := runBaselineBatch(find, queries, k)
		if err != nil {
			return nil, err
		}
		yenTime, err := runBaselineBatch(yen, queries, k)
		if err != nil {
			return nil, err
		}
		t.AddRow(k, kspdgTime, findTime, yenTime)
	}
	t.Notes = append(t.Notes, "paper: Yen grows fastest with k while KSP-DG and FindKSP grow slowly; at small scales the centralized baselines keep a lower absolute cost (Figure 39)")
	return t, nil
}

// Fig40 reproduces Figure 40: KSP-DG versus CANDS on single shortest path
// queries (k=1) across the three smaller networks.
func (s *Suite) Fig40() (*Table, error) {
	t := &Table{Columns: []string{"network", "KSP-DG (k=1)", "CANDS (k=1)"}}
	for _, name := range []string{"NY", "COL", "FLA"} {
		st, err := s.load(name, 0, s.Xi)
		if err != nil {
			return nil, err
		}
		cands, err := baseline.NewCANDS(st.ds.Graph, st.ds.DefaultZ)
		if err != nil {
			return nil, err
		}
		queries := s.queries(st.ds.Graph, s.Nq)
		kspdgTime, _, err := runBatchLocal(st.engine, queries, 1)
		if err != nil {
			return nil, err
		}
		candsTime, err := runBaselineBatch(cands, queries, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, kspdgTime, candsTime)
	}
	t.Notes = append(t.Notes, "paper: CANDS's exact shortest-path index wins k=1 queries, while its maintenance loses badly (Figures 40-41); this reproduction differs at small scale")
	return t, nil
}

// Fig41 reproduces Figure 41: maintenance time of DTLP (KSP-DG) versus the
// CANDS shortest-path index under a heavy update batch (α=50%, τ=50%).
func (s *Suite) Fig41() (*Table, error) {
	t := &Table{Columns: []string{"network", "updated edges", "KSP-DG maintenance", "CANDS maintenance"}}
	for _, name := range []string{"NY", "COL", "FLA"} {
		st, err := s.load(name, 0, s.Xi)
		if err != nil {
			return nil, err
		}
		cands, err := baseline.NewCANDS(st.ds.Graph, st.ds.DefaultZ)
		if err != nil {
			return nil, err
		}
		batch := s.perturb(st.ds.Graph, 0.5, 0.5, s.Seed)
		start := time.Now()
		if _, err := st.index.ApplyUpdates(batch); err != nil {
			return nil, err
		}
		kspdgTime := time.Since(start)
		start = time.Now()
		if err := cands.ApplyUpdates(batch); err != nil {
			return nil, err
		}
		candsTime := time.Since(start)
		t.AddRow(name, len(batch), kspdgTime, candsTime)
	}
	t.Notes = append(t.Notes, "CANDS must recompute the indexed shortest paths of every touched subgraph, so its maintenance cost dominates (Figure 41)")
	return t, nil
}
