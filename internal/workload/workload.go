// Package workload provides the datasets and dynamic-traffic workloads of
// the evaluation (Section 6.2): a loader for the DIMACS road network format
// the paper uses (NY, COL, FLA, CUSA with travel times), synthetic
// scale-model road networks for environments where the DIMACS files are not
// available, the traffic evolution model that perturbs an α-fraction of edge
// weights by up to ±τ per snapshot, and a KSP query workload generator.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"kspdg/internal/graph"
)

// Dataset is a named road network together with the default subgraph size z
// the paper uses for it (Table 1).
type Dataset struct {
	Name     string
	Graph    *graph.Graph
	DefaultZ int
}

// LoadDIMACS parses a DIMACS shortest-path graph file (the ".gr" format of
// the 9th DIMACS Implementation Challenge used by the paper): comment lines
// start with 'c', the problem line is "p sp <n> <m>" and arcs are
// "a <u> <v> <w>" with 1-based vertex ids.  The DIMACS format lists each
// undirected road once per direction; set undirected to true to merge the two
// arcs into a single undirected edge.
func LoadDIMACS(r io.Reader, undirected bool) (*graph.Graph, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	var b *graph.Builder
	seen := make(map[[2]graph.VertexID]bool)
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "p":
			if len(fields) != 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("workload: line %d: malformed problem line %q", line, text)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("workload: line %d: bad vertex count %q", line, fields[2])
			}
			b = graph.NewBuilder(n, !undirected)
		case "a":
			if b == nil {
				return nil, fmt.Errorf("workload: line %d: arc before problem line", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("workload: line %d: malformed arc %q", line, text)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("workload: line %d: malformed arc %q", line, text)
			}
			if u == v {
				continue
			}
			gu, gv := graph.VertexID(u-1), graph.VertexID(v-1)
			if undirected {
				a, c := gu, gv
				if a > c {
					a, c = c, a
				}
				if seen[[2]graph.VertexID{a, c}] {
					continue
				}
				seen[[2]graph.VertexID{a, c}] = true
			}
			if _, err := b.AddEdge(gu, gv, w); err != nil {
				return nil, fmt.Errorf("workload: line %d: %w", line, err)
			}
		default:
			return nil, fmt.Errorf("workload: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("workload: no problem line found")
	}
	return b.Build(), nil
}

// WriteDIMACS writes g in the DIMACS ".gr" format (both directions of every
// undirected edge are emitted, matching the challenge files).
func WriteDIMACS(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	edges := g.Edges()
	numArcs := len(edges)
	if !g.Directed() {
		numArcs *= 2
	}
	fmt.Fprintf(bw, "c generated by kspdg workload\n")
	fmt.Fprintf(bw, "p sp %d %d\n", g.NumVertices(), numArcs)
	for _, e := range edges {
		fmt.Fprintf(bw, "a %d %d %d\n", e.U+1, e.V+1, int64(e.Weight+0.5))
		if !g.Directed() {
			fmt.Fprintf(bw, "a %d %d %d\n", e.V+1, e.U+1, int64(e.Weight+0.5))
		}
	}
	return bw.Flush()
}

// RoadNetworkSpec parameterises a synthetic scale-model road network.  The
// generator produces a planar-ish grid with missing edges, diagonal
// shortcuts, and integer travel-time weights, reproducing the sparsity
// (average degree ~2.5-3 edges per vertex) of the DIMACS road networks.
type RoadNetworkSpec struct {
	Name string
	// Width and Height of the underlying grid; the network has about
	// Width*Height vertices.
	Width, Height int
	// DiagonalFraction is the fraction of grid cells that receive a diagonal
	// shortcut edge.
	DiagonalFraction float64
	// MissingFraction is the fraction of grid edges removed to create the
	// irregular block structure of real road networks.
	MissingFraction float64
	// MinWeight/MaxWeight bound the integer travel-time weights.
	MinWeight, MaxWeight int
	// Directed produces a directed network with per-direction edges.
	Directed bool
	// Seed makes generation deterministic.
	Seed int64
	// DefaultZ is the subgraph size the benchmarks use for this network.
	DefaultZ int
}

// Generate builds the synthetic road network described by the spec.  The
// generated graph is always connected: removed grid edges are only dropped
// when both endpoints keep another connection to the grid's spanning tree.
func Generate(spec RoadNetworkSpec) (*Dataset, error) {
	if spec.Width < 2 || spec.Height < 2 {
		return nil, fmt.Errorf("workload: grid must be at least 2x2, got %dx%d", spec.Width, spec.Height)
	}
	if spec.MinWeight <= 0 {
		spec.MinWeight = 1
	}
	if spec.MaxWeight < spec.MinWeight {
		spec.MaxWeight = spec.MinWeight + 9
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	n := spec.Width * spec.Height
	b := graph.NewBuilder(n, spec.Directed)
	id := func(x, y int) graph.VertexID { return graph.VertexID(y*spec.Width + x) }
	weight := func() float64 { return float64(spec.MinWeight + rng.Intn(spec.MaxWeight-spec.MinWeight+1)) }

	addEdge := func(u, v graph.VertexID) error {
		w := weight()
		if _, err := b.AddEdge(u, v, w); err != nil {
			return err
		}
		if spec.Directed {
			// Directed road networks carry one arc per direction; use the
			// same weight initially (experiments may perturb them apart).
			if _, err := b.AddEdge(v, u, w); err != nil {
				return err
			}
		}
		return nil
	}

	// Horizontal and vertical grid edges; a spanning-tree subset (the
	// "snake": all horizontal edges of each row plus one vertical connector
	// per row) is always kept so the network stays connected.
	for y := 0; y < spec.Height; y++ {
		for x := 0; x < spec.Width; x++ {
			if x+1 < spec.Width {
				if err := addEdge(id(x, y), id(x+1, y)); err != nil {
					return nil, err
				}
			}
			if y+1 < spec.Height {
				mandatory := x == 0
				if mandatory || rng.Float64() >= spec.MissingFraction {
					if err := addEdge(id(x, y), id(x, y+1)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	// Diagonal shortcuts.
	for y := 0; y+1 < spec.Height; y++ {
		for x := 0; x+1 < spec.Width; x++ {
			if rng.Float64() < spec.DiagonalFraction {
				if err := addEdge(id(x, y), id(x+1, y+1)); err != nil {
					return nil, err
				}
			}
		}
	}
	z := spec.DefaultZ
	if z == 0 {
		z = 100
	}
	return &Dataset{Name: spec.Name, Graph: b.Build(), DefaultZ: z}, nil
}

// Scale selects the size of the built-in scale-model datasets.
type Scale int

const (
	// ScaleTiny is for unit tests (hundreds of vertices).
	ScaleTiny Scale = iota
	// ScaleSmall is the default benchmark scale (thousands of vertices).
	ScaleSmall
	// ScaleMedium stresses the system harder (tens of thousands of
	// vertices); figures take correspondingly longer to regenerate.
	ScaleMedium
)

// ParseScale maps a scale name (tiny, small or medium) to its Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want tiny, small, or medium)", name)
}

// builtinSpecs returns the scale-model specs standing in for the four DIMACS
// road networks of Table 1.  The relative sizes (NY < COL < FLA < CUSA) and
// the default z progression follow the paper; absolute sizes are laptop
// scale.
func builtinSpecs(scale Scale) map[string]RoadNetworkSpec {
	type dims struct{ w, h, z int }
	var d map[string]dims
	switch scale {
	case ScaleTiny:
		d = map[string]dims{
			"NY": {16, 12, 24}, "COL": {20, 14, 24}, "FLA": {24, 16, 30}, "CUSA": {30, 20, 40},
		}
	case ScaleMedium:
		d = map[string]dims{
			"NY": {130, 100, 200}, "COL": {160, 120, 200}, "FLA": {220, 160, 500}, "CUSA": {360, 260, 1000},
		}
	default: // ScaleSmall
		d = map[string]dims{
			"NY": {50, 40, 60}, "COL": {60, 48, 60}, "FLA": {80, 60, 90}, "CUSA": {110, 80, 120},
		}
	}
	specs := make(map[string]RoadNetworkSpec, len(d))
	seeds := map[string]int64{"NY": 101, "COL": 202, "FLA": 303, "CUSA": 404}
	for name, dim := range d {
		specs[name] = RoadNetworkSpec{
			Name:             name,
			Width:            dim.w,
			Height:           dim.h,
			DiagonalFraction: 0.15,
			MissingFraction:  0.25,
			MinWeight:        1,
			MaxWeight:        10,
			Seed:             seeds[name],
			DefaultZ:         dim.z,
		}
	}
	return specs
}

// DatasetNames lists the built-in scale-model dataset names in the order the
// paper reports them.
func DatasetNames() []string { return []string{"NY", "COL", "FLA", "CUSA"} }

// BuiltinDataset generates one of the built-in scale-model datasets by name
// (NY, COL, FLA or CUSA) at the requested scale.
func BuiltinDataset(name string, scale Scale) (*Dataset, error) {
	spec, ok := builtinSpecs(scale)[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown dataset %q (want one of %v)", name, DatasetNames())
	}
	return Generate(spec)
}

// TrafficModel perturbs edge weights to simulate evolving traffic conditions:
// each Step changes the weights of an Alpha fraction of edges by a factor
// drawn uniformly from [1-Tau, 1+Tau], clamped below by MinWeight (the model
// of Fleischmann et al. [5] as instantiated in Section 6.2).
type TrafficModel struct {
	// Alpha is the fraction of edges whose weight changes per snapshot.
	Alpha float64
	// Tau is the relative variation range of a changing weight.
	Tau float64
	// MinWeight is the lower clamp for weights (default 0.5).
	MinWeight float64
	// MirrorDirected applies identical changes to the two directions of a
	// directed edge pair (the paper's "identical changes to the weights of
	// the two edges in the opposite direction" setting); it has no effect on
	// undirected graphs.
	MirrorDirected bool

	rng *rand.Rand
}

// NewTrafficModel creates a traffic model with the given parameters and seed.
func NewTrafficModel(alpha, tau float64, seed int64) *TrafficModel {
	return &TrafficModel{Alpha: alpha, Tau: tau, MinWeight: 0.5, rng: rand.New(rand.NewSource(seed))}
}

// Derive produces one snapshot's worth of weight updates, reading the
// current weights through weightOf without applying anything: index
// maintenance (dtlp.Index.ApplyUpdates) writes the batch to the graph it
// was derived from.  GenerateMixed derives over an overlay instead.
func (tm *TrafficModel) Derive(numEdges int, directed bool, weightOf func(graph.EdgeID) float64) []graph.WeightUpdate {
	minW := tm.MinWeight
	if minW <= 0 {
		minW = 0.5
	}
	var batch []graph.WeightUpdate
	step := 1
	if tm.MirrorDirected && directed {
		step = 2
	}
	for e := 0; e < numEdges; e += step {
		if tm.rng.Float64() >= tm.Alpha {
			continue
		}
		factor := 1 + (tm.rng.Float64()*2-1)*tm.Tau
		w := weightOf(graph.EdgeID(e)) * factor
		if w < minW {
			w = minW
		}
		batch = append(batch, graph.WeightUpdate{Edge: graph.EdgeID(e), NewWeight: w})
		if step == 2 && e+1 < numEdges {
			batch = append(batch, graph.WeightUpdate{Edge: graph.EdgeID(e + 1), NewWeight: w})
		}
	}
	return batch
}

// Query is one KSP query of a workload batch.
type Query struct {
	Source, Target graph.VertexID
}

// MixedEvent is one step of a mixed query/update scenario: exactly one of
// Query or Updates is set.
type MixedEvent struct {
	// Query, when non-nil, is a KSP query to submit.
	Query *Query
	// Updates, when non-empty, is a weight-update batch to apply.
	Updates []graph.WeightUpdate
}

// MixedScenario is a deterministic interleaving of KSP queries and weight
// update batches, the workload shape of the paper's dynamic-traffic regime:
// queries keep arriving while the road network's travel times change
// underneath them.  It is generated up front so concurrent executions (the
// differential chaos lane, the store tests) replay identical traffic.
type MixedScenario struct {
	// K is the number of shortest paths per query.
	K int
	// Events in submission order.  Executors are free to overlap them; only
	// the relative order of update batches must be preserved (each batch's
	// weights were derived assuming the previous batches landed first).
	Events []MixedEvent
}

// NumQueries returns the number of query events.
func (sc MixedScenario) NumQueries() int {
	n := 0
	for _, ev := range sc.Events {
		if ev.Query != nil {
			n++
		}
	}
	return n
}

// NumUpdateBatches returns the number of update-batch events.
func (sc MixedScenario) NumUpdateBatches() int {
	n := 0
	for _, ev := range sc.Events {
		if len(ev.Updates) > 0 {
			n++
		}
	}
	return n
}

// GenerateMixed builds a mixed scenario over g: numQueries random queries
// with numBatches traffic snapshots (per TrafficModel with the given alpha
// and tau; directed graphs mirror each direction pair, the paper's setting)
// spread evenly through the query stream.  Generation does not mutate g:
// batches record absolute target weights, computed as if the preceding
// batches of the scenario had been applied in order.
func GenerateMixed(g *graph.Graph, numQueries, numBatches, k int, alpha, tau float64, seed int64) MixedScenario {
	queries := NewQueryGenerator(g.NumVertices(), seed+1).Batch(numQueries)
	sc := MixedScenario{K: k}

	tm := NewTrafficModel(alpha, tau, seed)
	tm.MirrorDirected = true
	// Track evolving weights locally so batches compose without touching g.
	weights := make(map[graph.EdgeID]float64)
	cur := g.Snapshot()
	weightOf := func(e graph.EdgeID) float64 {
		if w, ok := weights[e]; ok {
			return w
		}
		return cur.Weight(e)
	}
	makeBatch := func() []graph.WeightUpdate {
		batch := tm.Derive(g.NumEdges(), g.Directed(), weightOf)
		for _, u := range batch {
			weights[u.Edge] = u.NewWeight
		}
		return batch
	}

	// Insert a batch after every stride queries (and any remainder at the
	// end) so updates land while queries are still flowing.
	stride := numQueries
	if numBatches > 0 {
		stride = numQueries / (numBatches + 1)
		if stride < 1 {
			stride = 1
		}
	}
	batchesLeft := numBatches
	for i := range queries {
		sc.Events = append(sc.Events, MixedEvent{Query: &queries[i]})
		if batchesLeft > 0 && (i+1)%stride == 0 {
			if b := makeBatch(); len(b) > 0 {
				sc.Events = append(sc.Events, MixedEvent{Updates: b})
			}
			batchesLeft--
		}
	}
	for ; batchesLeft > 0; batchesLeft-- {
		if b := makeBatch(); len(b) > 0 {
			sc.Events = append(sc.Events, MixedEvent{Updates: b})
		}
	}
	return sc
}

// QueryGenerator draws random (source, target) pairs with distinct endpoints.
type QueryGenerator struct {
	n   int
	rng *rand.Rand
}

// NewQueryGenerator creates a generator for a graph with n vertices.
func NewQueryGenerator(n int, seed int64) *QueryGenerator {
	return &QueryGenerator{n: n, rng: rand.New(rand.NewSource(seed))}
}

// Batch returns count random queries.
func (qg *QueryGenerator) Batch(count int) []Query {
	out := make([]Query, 0, count)
	for len(out) < count {
		s := graph.VertexID(qg.rng.Intn(qg.n))
		t := graph.VertexID(qg.rng.Intn(qg.n))
		if s == t {
			continue
		}
		out = append(out, Query{Source: s, Target: t})
	}
	return out
}
