package bench

import (
	"fmt"
	"time"

	"kspdg/internal/dtlp"
	"kspdg/internal/partition"
	"kspdg/internal/workload"
)

// Table1 reproduces Table 1: per-dataset vertex/edge counts, number of
// subgraphs (and subgraphs with more than five boundary vertices) at the
// default z, and the skeleton graph size.
func (s *Suite) Table1() (*Table, error) {
	t := &Table{Columns: []string{"network", "#vertices", "#edges", "z", "#subgraphs", "(nb>5)", "Gλ"}}
	for _, name := range workload.DatasetNames() {
		st, err := s.load(name, 0, s.Xi)
		if err != nil {
			return nil, err
		}
		pstats := st.part.ComputeStats()
		xstats := st.index.Stats()
		t.AddRow(name, st.ds.Graph.NumVertices(), st.ds.Graph.NumEdges(), st.ds.DefaultZ,
			pstats.NumSubgraphs, pstats.SubgraphsWithOver5Bnd, xstats.SkeletonVertices)
	}
	t.Notes = append(t.Notes, "scale-model datasets; paper sizes are 264K-14M vertices")
	return t, nil
}

// Table3 reproduces Table 3: the number of skeleton graph vertices as z
// varies, per dataset.
func (s *Suite) Table3() (*Table, error) {
	t := &Table{Columns: []string{"network", "z", "Gλ vertices"}}
	for _, name := range workload.DatasetNames() {
		ds, err := workload.BuiltinDataset(name, s.Scale)
		if err != nil {
			return nil, err
		}
		for _, z := range s.zSweep(ds) {
			part, err := partition.PartitionGraph(ds.Graph, z)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, z, len(part.BoundaryVertices()))
		}
	}
	t.Notes = append(t.Notes, "skeleton size shrinks as z grows, matching Table 3's trend")
	return t, nil
}

// constructionCost reproduces Figures 15-17: DTLP construction time and
// memory versus the subgraph size z for one dataset.
func (s *Suite) constructionCost(name, fig string) (*Table, error) {
	ds, err := workload.BuiltinDataset(name, s.Scale)
	if err != nil {
		return nil, err
	}
	t := &Table{Columns: []string{"z", "build time", "EP-Index entries", "bounding paths", "approx bytes", "Gλ vertices"}}
	for _, z := range s.zSweep(ds) {
		part, err := partition.PartitionGraph(ds.Graph, z)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		index, err := dtlp.Build(part, dtlp.Config{Xi: s.Xi})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		st := index.Stats()
		t.AddRow(z, elapsed, st.EPIndexEntries, st.NumBoundingPaths, st.ApproxBytes, st.SkeletonVertices)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("ξ=%d; paper shows build time first dropping then rising with z", s.Xi))
	return t, nil
}

// Fig18 reproduces Figure 18: CUSA construction cost with z sweep, comparing
// the undirected and directed variants of the network.
func (s *Suite) Fig18() (*Table, error) {
	t := &Table{Columns: []string{"variant", "z", "build time", "EP-Index entries", "approx bytes"}}
	for _, directed := range []bool{false, true} {
		ds, err := workload.BuiltinDataset("CUSA", s.Scale)
		if err != nil {
			return nil, err
		}
		g := ds.Graph
		if directed {
			// Regenerate the CUSA scale model as a directed network.
			dds, err := workload.Generate(workload.RoadNetworkSpec{
				Name: "CUSA-directed", Width: 30, Height: 20, DiagonalFraction: 0.15,
				MissingFraction: 0.25, MinWeight: 1, MaxWeight: 10, Directed: true, Seed: 404, DefaultZ: ds.DefaultZ,
			})
			if err != nil {
				return nil, err
			}
			if s.Scale != workload.ScaleTiny {
				dds, err = workload.Generate(workload.RoadNetworkSpec{
					Name: "CUSA-directed", Width: 110, Height: 80, DiagonalFraction: 0.15,
					MissingFraction: 0.25, MinWeight: 1, MaxWeight: 10, Directed: true, Seed: 404, DefaultZ: ds.DefaultZ,
				})
				if err != nil {
					return nil, err
				}
			}
			g = dds.Graph
		}
		label := "undirected"
		if directed {
			label = "directed"
		}
		for _, z := range []int{ds.DefaultZ, ds.DefaultZ * 3 / 2} {
			part, err := partition.PartitionGraph(g, z)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			index, err := dtlp.Build(part, dtlp.Config{Xi: s.Xi})
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			st := index.Stats()
			t.AddRow(label, z, elapsed, st.EPIndexEntries, st.ApproxBytes)
		}
	}
	t.Notes = append(t.Notes, "directed variant indexes both directions per boundary pair, roughly doubling build cost (Figure 18)")
	return t, nil
}

// Fig19 reproduces Figure 19: maintenance time of DTLP for the directed and
// undirected CUSA variants under a heavy update batch (α=50%, τ=50%).
func (s *Suite) Fig19() (*Table, error) {
	t := &Table{Columns: []string{"variant", "z", "updated edges", "maintenance time"}}
	variants := []struct {
		label    string
		directed bool
	}{{"undirected", false}, {"directed", true}}
	for _, v := range variants {
		spec := workload.RoadNetworkSpec{
			Name: "CUSA", Width: 30, Height: 20, DiagonalFraction: 0.15, MissingFraction: 0.25,
			MinWeight: 1, MaxWeight: 10, Directed: v.directed, Seed: 404, DefaultZ: 40,
		}
		if s.Scale != workload.ScaleTiny {
			spec.Width, spec.Height, spec.DefaultZ = 110, 80, 120
		}
		ds, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		part, err := partition.PartitionGraph(ds.Graph, ds.DefaultZ)
		if err != nil {
			return nil, err
		}
		index, err := dtlp.Build(part, dtlp.Config{Xi: s.Xi})
		if err != nil {
			return nil, err
		}
		tm := workload.NewTrafficModel(0.5, 0.5, s.Seed)
		tm.MirrorDirected = true
		batch := tm.Derive(ds.Graph.NumEdges(), ds.Graph.Directed(), ds.Graph.Snapshot().Weight)
		start := time.Now()
		if _, err := index.ApplyUpdates(batch); err != nil {
			return nil, err
		}
		t.AddRow(v.label, ds.DefaultZ, len(batch), time.Since(start))
	}
	t.Notes = append(t.Notes, "α=50%, τ=50%; directed maintenance is roughly double the undirected cost (Figure 19)")
	return t, nil
}

// Fig20 reproduces Figure 20: DTLP build and maintenance time versus graph
// size Ng (five growing graphs, ξ=10 scaled down, α=50%).
func (s *Suite) Fig20() (*Table, error) {
	t := &Table{Columns: []string{"Ng (vertices)", "build time", "maintenance time"}}
	dims := [][2]int{{10, 8}, {14, 10}, {18, 12}, {22, 14}, {26, 16}}
	if s.Scale != workload.ScaleTiny {
		dims = [][2]int{{40, 30}, {55, 40}, {70, 50}, {85, 60}, {100, 70}}
	}
	for i, d := range dims {
		ds, err := workload.Generate(workload.RoadNetworkSpec{
			Name: fmt.Sprintf("G%d", i), Width: d[0], Height: d[1], DiagonalFraction: 0.15,
			MissingFraction: 0.25, MinWeight: 1, MaxWeight: 10, Seed: s.Seed + int64(i), DefaultZ: 30,
		})
		if err != nil {
			return nil, err
		}
		part, err := partition.PartitionGraph(ds.Graph, 30)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		index, err := dtlp.Build(part, dtlp.Config{Xi: s.Xi})
		if err != nil {
			return nil, err
		}
		buildTime := time.Since(start)
		batch := s.perturb(ds.Graph, 0.5, 0.5, s.Seed)
		start = time.Now()
		if _, err := index.ApplyUpdates(batch); err != nil {
			return nil, err
		}
		t.AddRow(ds.Graph.NumVertices(), buildTime, time.Since(start))
	}
	t.Notes = append(t.Notes, "both build and maintenance grow roughly linearly with graph size (Figure 20)")
	return t, nil
}

// Fig21 reproduces Figure 21: update throughput and per-update latency as
// the graph grows, applying repeated rounds of weight changes.
func (s *Suite) Fig21() (*Table, error) {
	t := &Table{Columns: []string{"Ng (vertices)", "rounds", "updates", "throughput (updates/s)", "latency/update"}}
	dims := [][2]int{{10, 8}, {16, 12}, {22, 16}, {28, 20}}
	rounds := 20
	if s.Scale != workload.ScaleTiny {
		dims = [][2]int{{40, 30}, {60, 45}, {80, 60}, {100, 75}}
		rounds = 10
	}
	for i, d := range dims {
		ds, err := workload.Generate(workload.RoadNetworkSpec{
			Name: fmt.Sprintf("G%d", i), Width: d[0], Height: d[1], DiagonalFraction: 0.15,
			MissingFraction: 0.25, MinWeight: 1, MaxWeight: 10, Seed: s.Seed + int64(i), DefaultZ: 30,
		})
		if err != nil {
			return nil, err
		}
		part, err := partition.PartitionGraph(ds.Graph, 30)
		if err != nil {
			return nil, err
		}
		index, err := dtlp.Build(part, dtlp.Config{Xi: s.Xi})
		if err != nil {
			return nil, err
		}
		tm := workload.NewTrafficModel(0.5, 0.5, s.Seed)
		totalUpdates := 0
		var totalTime time.Duration
		for r := 0; r < rounds; r++ {
			batch := tm.Derive(ds.Graph.NumEdges(), ds.Graph.Directed(), ds.Graph.Snapshot().Weight)
			start := time.Now()
			if _, err := index.ApplyUpdates(batch); err != nil {
				return nil, err
			}
			totalTime += time.Since(start)
			totalUpdates += len(batch)
		}
		throughput := float64(totalUpdates) / totalTime.Seconds()
		latency := time.Duration(0)
		if totalUpdates > 0 {
			latency = totalTime / time.Duration(totalUpdates)
		}
		t.AddRow(ds.Graph.NumVertices(), rounds, totalUpdates, throughput, latency)
	}
	t.Notes = append(t.Notes, "throughput and per-update latency stay roughly flat across graph sizes (Figure 21)")
	return t, nil
}

// Fig22 reproduces Figure 22: maintenance time versus ξ (α=50%, τ=50%).
func (s *Suite) Fig22() (*Table, error) {
	t := &Table{Columns: []string{"network", "ξ", "bounding paths", "maintenance time"}}
	for _, name := range []string{"NY", "COL", "FLA"} {
		ds, err := workload.BuiltinDataset(name, s.Scale)
		if err != nil {
			return nil, err
		}
		for _, xi := range []int{1, 2, 4, 6, 8} {
			part, err := partition.PartitionGraph(ds.Graph, ds.DefaultZ)
			if err != nil {
				return nil, err
			}
			index, err := dtlp.Build(part, dtlp.Config{Xi: xi})
			if err != nil {
				return nil, err
			}
			batch := s.perturb(ds.Graph, 0.5, 0.5, s.Seed+int64(xi))
			start := time.Now()
			if _, err := index.ApplyUpdates(batch); err != nil {
				return nil, err
			}
			t.AddRow(name, xi, index.Stats().NumBoundingPaths, time.Since(start))
		}
	}
	t.Notes = append(t.Notes, "maintenance cost grows with ξ and flattens once pairs run out of distinct vfrag classes (Figure 22)")
	return t, nil
}

// Fig23 reproduces Figure 23: maintenance time versus the fraction α of
// edges changing weight (ξ=10 scaled, τ=50%).
func (s *Suite) Fig23() (*Table, error) {
	t := &Table{Columns: []string{"network", "α", "updated edges", "maintenance time"}}
	for _, name := range []string{"NY", "COL", "FLA"} {
		for _, alpha := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
			st, err := s.load(name, 0, s.Xi)
			if err != nil {
				return nil, err
			}
			batch := s.perturb(st.ds.Graph, alpha, 0.5, s.Seed)
			start := time.Now()
			if _, err := st.index.ApplyUpdates(batch); err != nil {
				return nil, err
			}
			t.AddRow(name, fmt.Sprintf("%.0f%%", alpha*100), len(batch), time.Since(start))
		}
	}
	t.Notes = append(t.Notes, "maintenance time grows with α as more bounding path distances must be refreshed (Figure 23)")
	return t, nil
}
