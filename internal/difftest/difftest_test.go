package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"kspdg/internal/baseline"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
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

// TestAdaptiveBudgetStall pins the adaptive iteration budget's contract on a
// constructed stall: a one-iteration stall window with an unattainable
// improvement threshold (99% gap reduction per iteration) turns every
// non-converging iteration past the first into a stall, so any query that
// Theorem 3 does not settle immediately must terminate through the budget —
// strictly earlier than the exact run — reporting Converged with
// BoundGap > 0, and its answer must stay within that gap of exact Yen.  The
// same queries through a budget-disabled engine must match Yen exactly with
// BoundGap == 0 (the converging case).  Runs under -race in CI.
func TestAdaptiveBudgetStall(t *testing.T) {
	// The safety-valve cap is lowered for both engines so the handful of
	// iteration-cap grinder queries in the sweep stay cheap; assertions that
	// require a principled termination are gated on staying under it.
	const iterCap = 1500
	budgetHit := false
	for seed := int64(1); seed <= 4 && !budgetHit; seed++ {
		p := Params{K: 4, Xi: 2}.withDefaults()
		rng := rand.New(rand.NewSource(7000 + seed))
		g := p.buildGraph(rng)
		part, err := partition.PartitionGraph(g, p.Z)
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		x, err := dtlp.Build(part, dtlp.Config{Xi: p.Xi})
		if err != nil {
			t.Fatalf("dtlp build: %v", err)
		}
		budgeted := core.NewEngine(x, nil, core.Options{
			MaxIterations: iterCap, StallWindow: 1, StallImprovement: 0.99,
		})
		exact := core.NewEngine(x, nil, core.Options{
			MaxIterations: iterCap, StallWindow: -1,
		})
		yen := baseline.NewYen(g)
		for q := 0; q < 12; q++ {
			s := graph.VertexID(rng.Intn(p.N))
			tt := graph.VertexID(rng.Intn(p.N))
			if s == tt {
				continue
			}
			bres, err := budgeted.QueryViewCtx(context.Background(), nil, s, tt, p.K)
			if err != nil {
				t.Fatalf("budgeted query(%d,%d): %v", s, tt, err)
			}
			eres, err := exact.QueryViewCtx(context.Background(), nil, s, tt, p.K)
			if err != nil {
				t.Fatalf("exact query(%d,%d): %v", s, tt, err)
			}
			want, err := yen.Query(s, tt, p.K)
			if err != nil {
				t.Fatalf("yen query(%d,%d): %v", s, tt, err)
			}
			wl := lengths(want)
			if eres.Iterations < iterCap {
				// Converging case: without the budget the engine must claim
				// and deliver an exact result.
				if !eres.Converged || eres.BoundGap != 0 {
					t.Errorf("query(%d,%d): budget-disabled run Converged=%v BoundGap=%g, want exact",
						s, tt, eres.Converged, eres.BoundGap)
				}
				if !sameLengths(lengths(eres.Paths), wl) {
					t.Errorf("query(%d,%d): budget-disabled lengths %v != Yen %v",
						s, tt, lengths(eres.Paths), wl)
				}
			}
			switch {
			case bres.BoundGap > 0:
				budgetHit = true
				if !bres.Converged {
					t.Errorf("query(%d,%d): BoundGap=%g with Converged=false", s, tt, bres.BoundGap)
				}
				if bres.Iterations >= iterCap {
					t.Errorf("query(%d,%d): budget termination at the safety-valve cap (%d iterations), want within the stall window",
						s, tt, bres.Iterations)
				}
				if bres.Iterations >= eres.Iterations {
					t.Errorf("query(%d,%d): budget fired after %d iterations, not earlier than the exact run's %d",
						s, tt, bres.Iterations, eres.Iterations)
				}
				if !withinGap(lengths(bres.Paths), wl, bres.BoundGap) {
					t.Errorf("query(%d,%d): budgeted lengths %v not within bound gap %g of Yen %v",
						s, tt, lengths(bres.Paths), bres.BoundGap, wl)
				}
			case !bres.Converged:
				// Genuine truncation: the safety valve fired before k
				// candidates existed.  Not this test's subject.
				t.Logf("query(%d,%d): truncated after %d iterations", s, tt, bres.Iterations)
			default:
				// The budget never fired, so the result must be exact.
				if !sameLengths(lengths(bres.Paths), wl) {
					t.Errorf("query(%d,%d): budgeted run claimed exact, lengths %v != Yen %v",
						s, tt, lengths(bres.Paths), wl)
				}
			}
		}
	}
	if !budgetHit {
		t.Fatal("no query in the sweep triggered the adaptive budget; the stall construction no longer stalls")
	}
}

// TestDifferentialTightBudget runs grid cells through the standard
// differential harness with an aggressive adaptive budget, exercising
// Check's near-exactness audit (withinGap) on whatever queries the budget
// cuts short while everything else must still match Yen exactly.
func TestDifferentialTightBudget(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			Check(t, Params{K: 4, Xi: 2, Seed: 8000 + seed, Engine: core.Options{
				MaxIterations: 2000, StallWindow: 2, StallImprovement: 0.5,
			}})
		})
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
