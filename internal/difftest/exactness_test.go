package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/fanout"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/shortest"
	"kspdg/internal/testutil"
	"kspdg/internal/workload"
)

// The ruler network: the 30×20 road grid the end-to-end benchmark runs on
// (benchmark/schedule.go), indexed at ξ = 3.  Vertex id = y*rulerWidth + x.
const (
	rulerWidth  = 30
	rulerHeight = 20
	rulerXi     = 3
	// rulerRadius is the Chebyshev distance on the grid within which the
	// lane asks every ordered pair.
	rulerRadius = 4
	// rulerSampleStride thins the pairs under -short (and under the race
	// detector, where the full sweep would outlast go test's timeout) to a
	// fixed sample of every stride-th pair, about 2,000 of 39,400.
	rulerSampleStride = 20
)

// rulerCell is one (z, k) row of the lane.
type rulerCell struct{ z, k int }

var rulerCells = []rulerCell{{80, 3}, {80, 8}, {200, 3}, {200, 8}}

// rulerNamedRows are the lane's named queries: the first two returned a
// wrong answer marked exact under the breadth-first sweep partition, the
// third under region growing without the join certificate.
var rulerNamedRows = []struct {
	s, t graph.VertexID
	cell rulerCell
}{
	{299, 269, rulerCell{80, 3}},
	{253, 283, rulerCell{200, 3}},
	{284, 285, rulerCell{80, 3}},
}

func (c rulerCell) String() string { return fmt.Sprintf("z%d/k%d", c.z, c.k) }

// rulerEngines builds the ruler network and one engine per subgraph size,
// each over the in-process LocalProvider, so every answer is either exact by
// Theorem 3 and the join certificate or reports that it is not.
func rulerEngines(tb testing.TB) (*graph.Graph, map[int]*core.Engine) {
	tb.Helper()
	ds, err := workload.Generate(workload.RoadNetworkSpec{
		Width: rulerWidth, Height: rulerHeight,
		DiagonalFraction: 0.15, MissingFraction: 0.25,
		MinWeight: 1, MaxWeight: 10, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	engines := make(map[int]*core.Engine)
	for _, c := range rulerCells {
		if engines[c.z] != nil {
			continue
		}
		part, err := partition.PartitionGraph(ds.Graph, c.z)
		if err != nil {
			tb.Fatal(err)
		}
		x, err := dtlp.Build(part, dtlp.Config{Xi: rulerXi})
		if err != nil {
			tb.Fatal(err)
		}
		engines[c.z] = core.NewEngine(x, nil, core.Options{})
	}
	return ds.Graph, engines
}

// rulerPairs lists every ordered pair of distinct vertices within Chebyshev
// distance rulerRadius on the grid, in (s, t) order.
func rulerPairs() [][2]graph.VertexID {
	var out [][2]graph.VertexID
	for s := 0; s < rulerWidth*rulerHeight; s++ {
		for t := 0; t < rulerWidth*rulerHeight; t++ {
			dx, dy := s%rulerWidth-t%rulerWidth, s/rulerWidth-t/rulerWidth
			if s != t && max(dx, -dx, dy, -dy) <= rulerRadius {
				out = append(out, [2]graph.VertexID{graph.VertexID(s), graph.VertexID(t)})
			}
		}
	}
	return out
}

// checkExact reports why a KSP-DG answer disagrees with Yen, or "" when it
// agrees; want holds at least k of Yen's paths, or all there are.  A
// converged answer is exact: its distances must be Yen's.  An answer a safety
// valve cut off claims nothing but must still not disagree with Yen; capped
// reports that it was one.
func checkExact(got core.Result, want []graph.Path, k int) (why string, capped bool) {
	gl, wl := lengths(got.Paths), lengths(want[:min(k, len(want))])
	if !sameLengths(gl, wl) {
		why = fmt.Sprintf("lengths %v, Yen %v", gl, wl)
	}
	return why, !got.Converged
}

// TestRulerExactness is the exactness lane: on the ruler network with static
// weights, every converged answer must equal Yen's.  It asks every ordered
// pair within Chebyshev distance 4 at z ∈ {80, 200} and k ∈ {3, 8} (about
// 158k queries), or, under -short, the named rows plus a fixed sample of the
// pairs.  A join that drops the only simple combination of a reference
// path's partial paths fails it.
func TestRulerExactness(t *testing.T) {
	g, engines := rulerEngines(t)
	ctx := context.Background()
	for _, row := range rulerNamedRows {
		t.Run(fmt.Sprintf("%d-%d/%v", row.s, row.t, row.cell), func(t *testing.T) {
			got, err := engines[row.cell.z].QueryViewCtx(ctx, nil, row.s, row.t, row.cell.k)
			if err != nil {
				t.Fatal(err)
			}
			if why, capped := checkExact(got, shortest.Yen(g.Snapshot(), row.s, row.t, row.cell.k, nil), row.cell.k); why != "" || capped {
				t.Errorf("query(%d,%d) %v: converged=%v %s", row.s, row.t, row.cell, got.Converged, why)
			}
		})
	}

	pairs := rulerPairs()
	if testing.Short() || testutil.RaceEnabled {
		var sample [][2]graph.VertexID
		for i := 0; i < len(pairs); i += rulerSampleStride {
			sample = append(sample, pairs[i])
		}
		pairs = sample
	}
	var mu sync.Mutex
	var wrong []string
	capped := 0
	fanout.Do(len(pairs), runtime.GOMAXPROCS(0), func(i int) {
		s, tt := pairs[i][0], pairs[i][1]
		// One Yen call at the largest k serves every row: the k shortest
		// distances are a prefix of the K shortest for k <= K.
		want := shortest.Yen(g.Snapshot(), s, tt, 8, nil)
		for _, c := range rulerCells {
			got, err := engines[c.z].QueryViewCtx(ctx, nil, s, tt, c.k)
			why, cut := checkExact(got, want, c.k)
			if err != nil {
				why = err.Error()
			}
			mu.Lock()
			if why != "" {
				wrong = append(wrong, fmt.Sprintf("query(%d,%d) %v: %s", s, tt, c, why))
			}
			if cut {
				capped++
			}
			mu.Unlock()
		}
	})
	for i, w := range wrong {
		if i == 20 {
			t.Errorf("... and %d more", len(wrong)-i)
			break
		}
		t.Error(w)
	}
	// An endpoint with fewer than k simple paths to the other (a dead end)
	// leaves Theorem 3 nothing to stop on, so such a query runs into the
	// iteration cap and is reported as not converged rather than exact.
	t.Logf("%d pairs × %d rows: %d wrong, %d cut off by the iteration cap", len(pairs), len(rulerCells), len(wrong), capped)
}

// TestRulerStreamMatchesQuery pins that streaming certifies before it emits:
// on the lane's named rows, the paths StreamView yields are exactly the
// answer QueryViewCtx returns, and both are Yen's.
func TestRulerStreamMatchesQuery(t *testing.T) {
	g, engines := rulerEngines(t)
	ctx := context.Background()
	for _, row := range rulerNamedRows {
		t.Run(fmt.Sprintf("%d-%d/%v", row.s, row.t, row.cell), func(t *testing.T) {
			e := engines[row.cell.z]
			want, err := e.QueryViewCtx(ctx, nil, row.s, row.t, row.cell.k)
			if err != nil {
				t.Fatal(err)
			}
			if why, capped := checkExact(want, shortest.Yen(g.Snapshot(), row.s, row.t, row.cell.k, nil), row.cell.k); why != "" || capped {
				t.Errorf("query: converged=%v %s", want.Converged, why)
			}
			var streamed []graph.Path
			got, err := e.StreamView(ctx, nil, row.s, row.t, row.cell.k, func(p graph.Path) error {
				streamed = append(streamed, p)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(streamed) != len(want.Paths) || len(got.Paths) != len(want.Paths) {
				t.Fatalf("streamed %d paths, stream result %d, query %d", len(streamed), len(got.Paths), len(want.Paths))
			}
			for i := range streamed {
				if graph.ComparePaths(streamed[i], want.Paths[i]) != 0 || graph.ComparePaths(got.Paths[i], want.Paths[i]) != 0 {
					t.Errorf("path %d: streamed %v (stream result %v), query %v", i, streamed[i], got.Paths[i], want.Paths[i])
				}
			}
		})
	}
}

// TestStreamCertifiesBeforeEmit holds StreamView to Yen on small random
// graphs where a stream that emitted on Theorem 3's threshold alone, without
// first certifying the examined reference paths against it, streams a path
// before a shorter one its joins had missed (seeds 72, 251 and 328 each have
// such queries).  Every streamed sequence must be Yen's distances in order,
// and the stream's result must be the paths it streamed.
func TestStreamCertifiesBeforeEmit(t *testing.T) {
	for _, seed := range []int64{72, 251, 328} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := Params{N: 30, Extra: 15, Z: 10, K: 3, Xi: 2, Seed: seed}.withDefaults()
			g := p.buildGraph(rand.New(rand.NewSource(p.Seed)))
			part, err := partition.PartitionGraph(g, p.Z)
			if err != nil {
				t.Fatal(err)
			}
			x, err := dtlp.Build(part, dtlp.Config{Xi: p.Xi})
			if err != nil {
				t.Fatal(err)
			}
			// A query with fewer than k paths runs into the iteration cap
			// (see TestRulerExactness); the lower cap keeps those cheap, and
			// their answers, which claim no exactness, are not checked.
			e := core.NewEngine(x, nil, core.Options{MaxIterations: 500})
			for s := graph.VertexID(0); int(s) < p.N; s++ {
				for tt := graph.VertexID(0); int(tt) < p.N; tt++ {
					if s == tt {
						continue
					}
					var streamed []graph.Path
					got, err := e.StreamView(context.Background(), nil, s, tt, p.K, func(path graph.Path) error {
						streamed = append(streamed, path)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if !got.Converged {
						continue
					}
					want := lengths(shortest.Yen(g.Snapshot(), s, tt, p.K, nil))
					var order []float64
					for i, path := range streamed {
						order = append(order, path.Dist)
						if i >= len(got.Paths) || graph.ComparePaths(path, got.Paths[i]) != 0 {
							t.Errorf("query(%d,%d): streamed path %d %v is not the result's", s, tt, i, path)
						}
					}
					if !sameLengths(order, want) {
						t.Errorf("query(%d,%d): streamed %v, Yen %v", s, tt, order, want)
					}
				}
			}
		})
	}
}
