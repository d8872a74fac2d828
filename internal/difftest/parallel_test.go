package difftest

import (
	"fmt"
	"testing"

	"kspdg/internal/testutil"
)

// TestDifferentialGridParallel is the parallel-executor lane: the full
// differential grid of TestDifferentialGrid, refined through cluster workers
// at GOMAXPROCS 1 and 4 — the width of the workers' partial-KSP fan-out and of
// the index's sharded update maintenance — plus one topology cell per width
// for the sharded subgraph rebuilds.  Every answer must stay bit-identical to
// exact Yen at the epoch it reports — the fan-out is only allowed to change
// wall-clock time, never results.  Runs under -race in CI, which is also what
// audits the parallel searches' pooled scratch for sharing bugs.
func TestDifferentialGridParallel(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, directed := range []bool{false, true} {
			for _, k := range []int{1, 4, 8} {
				for _, xi := range []int{1, 2, 4} {
					for seed := int64(1); seed <= 3; seed++ {
						p := Params{
							Directed: directed, K: k, Xi: xi,
							Seed:     seed*100 + int64(k)*10 + int64(xi),
							Provider: batchedClusterProvider(3),
						}
						name := fmt.Sprintf("par=%d/directed=%v/k=%d/xi=%d/seed=%d", par, directed, k, xi, seed)
						t.Run(name, func(t *testing.T) {
							if testing.Short() && (!p.Directed && p.K == 4 || seed > 1) {
								t.Skip("short lane runs seed 1 and skips the slow iteration-cap cells; the full grid runs nightly")
							}
							testutil.SetGOMAXPROCS(t, par)
							Check(t, p)
						})
					}
				}
			}
			t.Run(fmt.Sprintf("par=%d/directed=%v/topology", par, directed), func(t *testing.T) {
				testutil.SetGOMAXPROCS(t, par)
				CheckTopology(t, TopologyParams{Directed: directed, Seed: 37})
			})
		}
	}
}

// TestDifferentialChaosKillWorkerParallel repeats the kill-a-worker chaos
// scenario at GOMAXPROCS 1 and 4 (restarted workers fan out at the same
// width): replica answers must stay bit-identical to exact Yen at the
// reported epoch no matter how wide the surviving workers fan out.
func TestDifferentialChaosKillWorkerParallel(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d/kill", par), func(t *testing.T) {
			testutil.SetGOMAXPROCS(t, par)
			CheckChaos(t, ChaosParams{Seed: 75, Victim: 0})
		})
		t.Run(fmt.Sprintf("par=%d/kill-and-rejoin", par), func(t *testing.T) {
			if testing.Short() && par == 1 {
				t.Skip("width-1 rejoin cell duplicates the base chaos lane; the full grid runs nightly")
			}
			testutil.SetGOMAXPROCS(t, par)
			CheckChaos(t, ChaosParams{Seed: 72, Victim: 1, Restart: true})
		})
	}
}
