package bench

import (
	"fmt"

	"kspdg/internal/workload"
)

// iterationSweep measures the average number of KSP-DG iterations per query
// for a given configuration.
func (s *Suite) iterationSweep(name string, xi int, alpha, tau float64, k, nq int) (float64, error) {
	st, err := s.load(name, 0, xi)
	if err != nil {
		return 0, err
	}
	// Apply one traffic snapshot so lower bounds are no longer exact.
	if alpha > 0 {
		batch := s.perturb(st.ds.Graph, alpha, tau, s.Seed)
		if _, err := st.index.ApplyUpdates(batch); err != nil {
			return 0, err
		}
	}
	queries := s.queries(st.ds.Graph, nq)
	_, results, err := runBatchLocal(st.engine, queries, k)
	if err != nil {
		return 0, err
	}
	return avgIterations(results), nil
}

// iterK returns the scaled-down stand-in for the paper's k=50 used by the
// iteration-count figures.
func (s *Suite) iterK() int {
	if s.Scale == workload.ScaleTiny {
		return 4
	}
	return 8
}

// iterNq returns the number of queries used by the iteration figures.
func (s *Suite) iterNq() int {
	n := s.Nq / 4
	if n < 8 {
		n = 8
	}
	return n
}

// Fig24 reproduces Figure 24: number of iterations versus ξ.
func (s *Suite) Fig24() (*Table, error) {
	t := &Table{Columns: []string{"network", "ξ", "avg iterations"}}
	for _, name := range workload.DatasetNames() {
		for _, xi := range []int{1, 2, 4, 6} {
			avg, err := s.iterationSweep(name, xi, 0.3, 0.5, s.iterK(), s.iterNq())
			if err != nil {
				return nil, err
			}
			t.AddRow(name, xi, avg)
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("k=%d, α=30%%, τ=50%%; iterations drop as ξ tightens the lower bounds (Figure 24); counts are capped at 80 per query", s.iterK()))
	return t, nil
}

// Fig25 reproduces Figure 25: number of iterations versus the weight
// variation range τ.
func (s *Suite) Fig25() (*Table, error) {
	t := &Table{Columns: []string{"network", "τ", "avg iterations"}}
	for _, name := range workload.DatasetNames() {
		for _, tau := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			avg, err := s.iterationSweep(name, 1, 0.3, tau, s.iterK(), s.iterNq())
			if err != nil {
				return nil, err
			}
			t.AddRow(name, fmt.Sprintf("%.0f%%", tau*100), avg)
		}
	}
	t.Notes = append(t.Notes, "larger weight variation loosens the lower bounds and increases iterations (Figure 25)")
	return t, nil
}

// Fig26 reproduces Figure 26: number of iterations versus k.
func (s *Suite) Fig26() (*Table, error) {
	t := &Table{Columns: []string{"network", "k", "avg iterations"}}
	ks := []int{1, 2, 4, 6, 8}
	for _, name := range workload.DatasetNames() {
		for _, k := range ks {
			avg, err := s.iterationSweep(name, 1, 0.3, 0.5, k, s.iterNq())
			if err != nil {
				return nil, err
			}
			t.AddRow(name, k, avg)
		}
	}
	t.Notes = append(t.Notes, "iterations grow slowly with k (Figure 26)")
	return t, nil
}

// Fig27 reproduces Figure 27: number of iterations versus α.
func (s *Suite) Fig27() (*Table, error) {
	t := &Table{Columns: []string{"network", "α", "avg iterations"}}
	for _, name := range workload.DatasetNames() {
		for _, alpha := range []float64{0.2, 0.3, 0.4, 0.5} {
			avg, err := s.iterationSweep(name, 1, alpha, 0.9, s.iterK(), s.iterNq())
			if err != nil {
				return nil, err
			}
			t.AddRow(name, fmt.Sprintf("%.0f%%", alpha*100), avg)
		}
	}
	t.Notes = append(t.Notes, "k scaled down from the paper's 50; τ=90%, ξ=1 (Figure 27)")
	return t, nil
}

// processingTime reproduces Figures 28-31: total processing time of a query
// batch versus z for several k, one dataset per figure.
func (s *Suite) processingTime(name, fig string) (*Table, error) {
	ds, err := workload.BuiltinDataset(name, s.Scale)
	if err != nil {
		return nil, err
	}
	t := &Table{Columns: []string{"z", "k", "batch time", "avg iterations"}}
	queries := s.queries(ds.Graph, s.Nq)
	for _, z := range s.zSweep(ds) {
		for _, k := range []int{2, 4, 6} {
			st, err := s.load(name, z, s.Xi)
			if err != nil {
				return nil, err
			}
			elapsed, results, err := runBatchLocal(st.engine, queries, k)
			if err != nil {
				return nil, err
			}
			t.AddRow(z, k, elapsed, avgIterations(results))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Nq=%d, ξ=%d; time first decreases then increases with z and grows linearly with k (Figures 28-31)", len(queries), s.Xi))
	return t, nil
}

// Fig32 reproduces Figure 32: total processing time versus the number of
// concurrent queries Nq, per dataset.
func (s *Suite) Fig32() (*Table, error) {
	t := &Table{Columns: []string{"network", "Nq", "batch time"}}
	for _, name := range workload.DatasetNames() {
		st, err := s.load(name, 0, s.Xi)
		if err != nil {
			return nil, err
		}
		for _, factor := range []int{1, 2, 4, 8} {
			nq := s.Nq / 2 * factor
			queries := s.queries(st.ds.Graph, nq)
			elapsed, _, err := runBatchLocal(st.engine, queries, s.K)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, nq, elapsed)
		}
	}
	t.Notes = append(t.Notes, "processing time grows approximately linearly with Nq (Figure 32)")
	return t, nil
}

// Fig33 reproduces Figure 33: processing time versus ξ for several k (NY).
func (s *Suite) Fig33() (*Table, error) {
	t := &Table{Columns: []string{"ξ", "k", "batch time", "avg iterations"}}
	nq := s.Nq / 2
	for _, xi := range []int{1, 2, 4, 6} {
		st, err := s.load("NY", 0, xi)
		if err != nil {
			return nil, err
		}
		batch := s.perturb(st.ds.Graph, 0.3, 0.9, s.Seed)
		if _, err := st.index.ApplyUpdates(batch); err != nil {
			return nil, err
		}
		queries := s.queries(st.ds.Graph, nq)
		for _, k := range []int{2, 4, 6} {
			elapsed, results, err := runBatchLocal(st.engine, queries, k)
			if err != nil {
				return nil, err
			}
			t.AddRow(xi, k, elapsed, avgIterations(results))
		}
	}
	t.Notes = append(t.Notes, "larger ξ reduces iterations and processing time, most visibly for large k (Figure 33)")
	return t, nil
}

// Fig34 reproduces Figure 34: processing time versus the weight variation
// range τ for several k (NY).
func (s *Suite) Fig34() (*Table, error) {
	t := &Table{Columns: []string{"τ", "k", "batch time", "avg iterations"}}
	nq := s.Nq / 2
	for _, tau := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		st, err := s.load("NY", 0, s.Xi)
		if err != nil {
			return nil, err
		}
		batch := s.perturb(st.ds.Graph, 0.3, tau, s.Seed)
		if _, err := st.index.ApplyUpdates(batch); err != nil {
			return nil, err
		}
		queries := s.queries(st.ds.Graph, nq)
		for _, k := range []int{2, 6} {
			elapsed, results, err := runBatchLocal(st.engine, queries, k)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%.0f%%", tau*100), k, elapsed, avgIterations(results))
		}
	}
	t.Notes = append(t.Notes, "processing time rises slowly with τ as reference paths lose pruning power (Figure 34)")
	return t, nil
}
