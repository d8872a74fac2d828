package difftest

import (
	"fmt"
	"testing"
)

// TestDifferentialGrid sweeps the full parameter grid of the acceptance
// criteria: directed/undirected × k ∈ {1,4,8} × ξ ∈ {1,2,4} × 3 seeds = 54
// randomized graph/parameter combinations, each checked before and after two
// randomized weight-update batches.
//
// In -short mode (the -race CI lane on slow hardware) the undirected k=4
// column is skipped: it is where the engine's iteration-cap outliers live,
// making those nine cells an order of magnitude slower than the rest of the
// grid.  The full grid runs in the non-race lane.
func TestDifferentialGrid(t *testing.T) {
	combos := 0
	for _, directed := range []bool{false, true} {
		for _, k := range []int{1, 4, 8} {
			for _, xi := range []int{1, 2, 4} {
				for seed := int64(1); seed <= 3; seed++ {
					combos++
					p := Params{Directed: directed, K: k, Xi: xi, Seed: seed*100 + int64(k)*10 + int64(xi)}
					name := fmt.Sprintf("directed=%v/k=%d/xi=%d/seed=%d", directed, k, xi, seed)
					t.Run(name, func(t *testing.T) {
						if testing.Short() && !p.Directed && p.K == 4 {
							t.Skip("slow iteration-cap cells are gated behind the full (non-short) lane")
						}
						Check(t, p)
					})
				}
			}
		}
	}
	if combos < 50 {
		t.Fatalf("grid covers only %d combinations, want >= 50", combos)
	}
}

// TestDifferentialConcurrent audits concurrent queries against Yen running
// on the exact epoch each query reports, while update batches land mid-run:
// 8 queriers × 5 queries interleaved with 3 weight-update batches through the
// snapshot layer, on both graph flavours.  Run under -race in CI.
func TestDifferentialConcurrent(t *testing.T) {
	t.Run("undirected", func(t *testing.T) {
		CheckConcurrent(t, ConcurrentParams{Seed: 42})
	})
	t.Run("directed", func(t *testing.T) {
		CheckConcurrent(t, ConcurrentParams{Directed: true, Seed: 43})
	})
}
