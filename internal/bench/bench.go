// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6) against the scale-model
// datasets.  Each experiment produces a Table whose rows mirror the series
// the paper plots; absolute numbers differ from the paper (the substrate is a
// laptop-scale simulator), but the shapes — who wins, by what factor, where
// the crossovers are — are expected to match.
//
// The cmd/kspbench binary exposes every experiment on the command line.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/fanout"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/workload"
)

// Table is one experiment's output: a titled grid of rows.
type Table struct {
	Name    string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fms", float64(v.Microseconds())/1000)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table as aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.Name, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Suite runs experiments at a chosen scale.
type Suite struct {
	// Scale selects the size of the scale-model datasets.
	Scale workload.Scale
	// Nq is the base number of queries per batch (the paper uses 1000; the
	// scale-model default is smaller).
	Nq int
	// Xi is the default number of bounding paths per boundary pair.
	Xi int
	// K is the default k.
	K int
	// Seed drives query generation and traffic perturbation.
	Seed int64
	// Workers is the default simulated cluster size (the paper uses 10).
	Workers int
}

// DefaultSuite returns a Suite with defaults sized for a laptop run.
func DefaultSuite() *Suite {
	return &Suite{Scale: workload.ScaleTiny, Nq: 60, Xi: 3, K: 2, Seed: 42, Workers: 4}
}

// experiment describes one runnable experiment.
type experiment struct {
	name  string
	title string
	run   func(*Suite) (*Table, error)
}

// registry lists every experiment in report order.
var registry = []experiment{
	{"table1", "Statistics on the road network datasets (Table 1)", (*Suite).Table1},
	{"table3", "Number of vertices in skeleton graph with varying z (Table 3)", (*Suite).Table3},
	{"fig15", "DTLP construction cost vs z (NY, Figure 15)", func(s *Suite) (*Table, error) { return s.constructionCost("NY", "fig15") }},
	{"fig16", "DTLP construction cost vs z (COL, Figure 16)", func(s *Suite) (*Table, error) { return s.constructionCost("COL", "fig16") }},
	{"fig17", "DTLP construction cost vs z (FLA, Figure 17)", func(s *Suite) (*Table, error) { return s.constructionCost("FLA", "fig17") }},
	{"fig18", "DTLP construction cost vs z, directed vs undirected (CUSA, Figure 18)", (*Suite).Fig18},
	{"fig19", "DTLP maintenance cost, directed vs undirected (CUSA, Figure 19)", (*Suite).Fig19},
	{"fig20", "DTLP build and maintenance time vs graph size (Figure 20)", (*Suite).Fig20},
	{"fig21", "Update throughput and latency vs graph size (Figure 21)", (*Suite).Fig21},
	{"fig22", "Maintenance cost vs number of bounding paths ξ (Figure 22)", (*Suite).Fig22},
	{"fig23", "Maintenance cost vs fraction of changing edges α (Figure 23)", (*Suite).Fig23},
	{"fig24", "Number of iterations vs ξ (Figure 24)", (*Suite).Fig24},
	{"fig25", "Number of iterations vs weight variation range τ (Figure 25)", (*Suite).Fig25},
	{"fig26", "Number of iterations vs k (Figure 26)", (*Suite).Fig26},
	{"fig27", "Number of iterations vs α (Figure 27)", (*Suite).Fig27},
	{"fig28", "Query processing time vs z and k (NY, Figure 28)", func(s *Suite) (*Table, error) { return s.processingTime("NY", "fig28") }},
	{"fig29", "Query processing time vs z and k (COL, Figure 29)", func(s *Suite) (*Table, error) { return s.processingTime("COL", "fig29") }},
	{"fig30", "Query processing time vs z and k (FLA, Figure 30)", func(s *Suite) (*Table, error) { return s.processingTime("FLA", "fig30") }},
	{"fig31", "Query processing time vs z and k (CUSA, Figure 31)", func(s *Suite) (*Table, error) { return s.processingTime("CUSA", "fig31") }},
	{"fig32", "Query processing time vs number of queries Nq (Figure 32)", (*Suite).Fig32},
	{"fig33", "Query processing time vs ξ (Figure 33)", (*Suite).Fig33},
	{"fig34", "Query processing time vs τ (Figure 34)", (*Suite).Fig34},
	{"fig35", "KSP-DG vs FindKSP vs Yen, time vs Nq (NY, Figure 35)", func(s *Suite) (*Table, error) { return s.comparisonVsNq("NY", "fig35") }},
	{"fig36", "KSP-DG vs FindKSP vs Yen, time vs Nq (COL, Figure 36)", func(s *Suite) (*Table, error) { return s.comparisonVsNq("COL", "fig36") }},
	{"fig37", "KSP-DG vs FindKSP vs Yen, time vs Nq (FLA, Figure 37)", func(s *Suite) (*Table, error) { return s.comparisonVsNq("FLA", "fig37") }},
	{"fig38", "KSP-DG vs FindKSP vs Yen, time vs Nq (CUSA, Figure 38)", func(s *Suite) (*Table, error) { return s.comparisonVsNq("CUSA", "fig38") }},
	{"fig39", "KSP-DG vs FindKSP vs Yen, time vs k (FLA, Figure 39)", (*Suite).Fig39},
	{"fig40", "KSP-DG vs CANDS, processing time for k=1 (Figure 40)", (*Suite).Fig40},
	{"fig41", "KSP-DG vs CANDS, maintenance time (Figure 41)", (*Suite).Fig41},
	{"fig42", "DTLP building time vs number of servers (Figure 42)", (*Suite).Fig42},
	{"fig43", "Query processing time vs number of servers (Figure 43)", (*Suite).Fig43},
	{"fig44", "Query processing time vs number of servers for several k (NY, Figure 44)", (*Suite).Fig44},
	{"fig45", "Scalability comparison vs number of servers (NY, Figure 45)", (*Suite).Fig45},
	{"fig46", "Relative speedups vs number of servers (Figure 46)", (*Suite).Fig46},
	{"loadbalance", "Per-worker load spread (Section 6.6)", (*Suite).LoadBalance},
	{"ablation-vfrag", "Ablation: vfrag bound vs edge-count bound", (*Suite).AblationVfrag},
	{"ablation-mfptree", "Ablation: EP-Index vs MFP-tree compression", (*Suite).AblationMFPTree},
}

// Experiments lists the available experiment names in report order.
func Experiments() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Describe returns the human-readable title of an experiment.
func Describe(name string) (string, bool) {
	for _, e := range registry {
		if e.name == name {
			return e.title, true
		}
	}
	return "", false
}

// Run executes the named experiment.
func (s *Suite) Run(name string) (*Table, error) {
	for _, e := range registry {
		if e.name == name {
			t, err := e.run(s)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", name, err)
			}
			t.Name = e.name
			t.Title = e.title
			return t, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (available: %s)", name, strings.Join(Experiments(), ", "))
}

// ----- shared helpers -----

// setup holds the per-dataset objects most experiments need.
type setup struct {
	ds     *workload.Dataset
	part   *partition.Partition
	index  *dtlp.Index
	engine *core.Engine
}

// engineOpts returns the query options the harness uses everywhere.  The
// iteration cap mirrors the paper's observation that KSP-DG needs at most a
// few tens of iterations in practice (Figures 24-27); it keeps pathological
// low-ξ/high-τ corner cases from dominating a sweep's wall-clock time.
func (s *Suite) engineOpts() core.Options {
	return core.Options{MaxIterations: 80}
}

// load builds the dataset, partition, index, and a local engine.
func (s *Suite) load(name string, z, xi int) (*setup, error) {
	ds, err := workload.BuiltinDataset(name, s.Scale)
	if err != nil {
		return nil, err
	}
	if z <= 0 {
		z = ds.DefaultZ
	}
	if xi <= 0 {
		xi = s.Xi
	}
	part, err := partition.PartitionGraph(ds.Graph, z)
	if err != nil {
		return nil, err
	}
	index, err := dtlp.Build(part, dtlp.Config{Xi: xi})
	if err != nil {
		return nil, err
	}
	return &setup{ds: ds, part: part, index: index, engine: core.NewEngine(index, nil, s.engineOpts())}, nil
}

// zSweep returns a small sweep of subgraph sizes around the dataset default,
// standing in for the paper's per-dataset z ranges.
func (s *Suite) zSweep(ds *workload.Dataset) []int {
	base := ds.DefaultZ
	return []int{base / 2, base * 3 / 4, base, base * 3 / 2, base * 2}
}

// queries generates a deterministic batch of Nq queries for the dataset.
func (s *Suite) queries(g *graph.Graph, n int) []workload.Query {
	if n <= 0 {
		n = s.Nq
	}
	return workload.NewQueryGenerator(g.NumVertices(), s.Seed).Batch(n)
}

// runBatch processes the queries on engine, width at a time, and returns the
// total wall-clock time and the results in input order.
func runBatch(engine *core.Engine, queries []workload.Query, k, width int) (time.Duration, []core.Result, error) {
	start := time.Now()
	results := make([]core.Result, len(queries))
	errs := make([]error, len(queries))
	fanout.Do(len(queries), width, func(i int) {
		results[i], errs[i] = engine.QueryViewCtx(context.TODO(), nil, queries[i].Source, queries[i].Target, k)
	})
	return time.Since(start), results, errors.Join(errs...)
}

// runCluster processes the queries on an in-process cluster of the given
// size, as many at a time as it has workers (one query processor per
// server).
func (s *Suite) runCluster(index *dtlp.Index, servers int, queries []workload.Query, k int) (time.Duration, error) {
	c, err := cluster.New(index, servers)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	elapsed, _, err := runBatch(core.NewEngine(index, c, s.engineOpts()), queries, k, servers)
	return elapsed, err
}

// avgIterations averages the iteration counts of a result set.
func avgIterations(results []core.Result) float64 {
	if len(results) == 0 {
		return 0
	}
	total := 0
	for _, r := range results {
		total += r.Iterations
	}
	return float64(total) / float64(len(results))
}

// perturb derives one traffic snapshot from the graph's current weights; the
// index maintenance the caller runs writes it to the graph.
func (s *Suite) perturb(g *graph.Graph, alpha, tau float64, seed int64) []graph.WeightUpdate {
	return workload.NewTrafficModel(alpha, tau, seed).Derive(g.NumEdges(), g.Directed(), g.Snapshot().Weight)
}

// spread returns (max-min)/max over a slice of ints, or 0 for empty input.
func spread(values []int) float64 {
	if len(values) == 0 {
		return 0
	}
	mn, mx := values[0], values[0]
	for _, v := range values {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mx == 0 {
		return 0
	}
	return float64(mx-mn) / float64(mx)
}
