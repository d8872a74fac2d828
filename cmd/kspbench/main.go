// Command kspbench regenerates the tables and figures of the paper's
// evaluation section against the scale-model datasets.
//
// Usage:
//
//	kspbench -list
//	kspbench -exp fig35
//	kspbench -exp all -scale small -nq 200 -workers 8
//	kspbench -check BENCH_rpc.json -check-tolerance 2
//	kspbench -exp rpc -cpuprofile cpu.pprof -memprofile alloc.pprof
//
// Each experiment prints a plain-text table whose rows correspond to the
// series the paper plots.
//
// -check is the CI regression gate: it re-runs the experiment recorded in a
// committed BENCH_<name>.json baseline with the baseline's exact parameters
// and exits nonzero when the fresh ns/op exceeds the baseline's by more than
// -check-tolerance, or the fresh allocation count exceeds the baseline's by
// more than -check-alloc-tolerance.  Refresh a baseline by re-running the
// experiment with -json and committing the new file.
//
// -cpuprofile and -memprofile write pprof profiles covering the run (in
// -check mode too, so a failed gate leaves behind the evidence needed to
// diagnose it).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"kspdg/internal/bench"
	"kspdg/internal/workload"
)

var (
	list       = flag.Bool("list", false, "list available experiments and exit")
	exp        = flag.String("exp", "all", "experiment to run (e.g. table1, fig35, ablation-vfrag) or 'all'")
	scale      = flag.String("scale", "tiny", "dataset scale: tiny, small, or medium")
	nq         = flag.Int("nq", 0, "queries per batch (0 = scale default)")
	xi         = flag.Int("xi", 3, "number of bounding paths per boundary pair (ξ)")
	k          = flag.Int("k", 2, "default k")
	seed       = flag.Int64("seed", 42, "random seed for workloads")
	workers    = flag.Int("workers", 4, "default simulated cluster size")
	jsonDir    = flag.String("json", "", "also write machine-readable BENCH_<name>.json results (with ns/op and allocs) into this directory")
	check      = flag.String("check", "", "regression gate: re-run the experiment recorded in this BENCH_<name>.json baseline and fail on a slowdown beyond -check-tolerance or an allocation increase beyond -check-alloc-tolerance")
	checkTl    = flag.Float64("check-tolerance", 1.5, "maximum allowed fresh/baseline ns/op ratio for -check")
	checkAlTl  = flag.Float64("check-alloc-tolerance", 1.25, "maximum allowed fresh/baseline allocation-count ratio for -check")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU pprof profile covering the run to this file")
	memProfile = flag.String("memprofile", "", "write a heap (alloc) pprof profile at the end of the run to this file")
)

func main() {
	flag.Parse()
	os.Exit(run())
}

// run carries the whole invocation so profile writers flush before the
// process exits with the gate's status code.
func run() int {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "kspbench: wrote CPU profile %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile reflects the run
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "kspbench: wrote alloc profile %s\n", *memProfile)
		}()
	}

	if *check != "" {
		return runCheck(*check, *checkTl, *checkAlTl, *jsonDir)
	}

	if *list {
		for _, name := range bench.Experiments() {
			title, _ := bench.Describe(name)
			fmt.Printf("%-18s %s\n", name, title)
		}
		return 0
	}

	suite := bench.DefaultSuite()
	switch *scale {
	case "tiny":
		suite.Scale = workload.ScaleTiny
		suite.Nq = 60
	case "small":
		suite.Scale = workload.ScaleSmall
		suite.Nq = 150
	case "medium":
		suite.Scale = workload.ScaleMedium
		suite.Nq = 300
	default:
		fmt.Fprintf(os.Stderr, "kspbench: unknown scale %q (want tiny, small, or medium)\n", *scale)
		return 2
	}
	if *nq > 0 {
		suite.Nq = *nq
	}
	suite.Xi = *xi
	suite.K = *k
	suite.Seed = *seed
	suite.Workers = *workers

	names := []string{*exp}
	if *exp == "all" {
		names = bench.Experiments()
	}
	for _, name := range names {
		if *jsonDir == "" {
			table, err := suite.Run(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
				return 1
			}
			table.Fprint(os.Stdout)
			continue
		}
		table, metrics, err := suite.RunMeasured(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
			return 1
		}
		table.Fprint(os.Stdout)
		path, err := bench.WriteJSON(*jsonDir, metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "kspbench: wrote %s (%.3fms/op, %d allocs)\n",
			path, float64(metrics.NsPerOp)/1e6, metrics.Allocs)
	}
	return 0
}

// runCheck is the -check mode: replay the baseline's experiment with its
// exact parameters and gate on both the ns/op ratio and the allocation-count
// ratio.
func runCheck(baselinePath string, tolerance, allocTolerance float64, jsonDir string) int {
	baseline, err := bench.ReadJSON(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
		return 2
	}
	suite, err := bench.SuiteFromMetrics(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
		return 2
	}
	fmt.Printf("kspbench: checking %s against %s (scale %s, nq %d, k %d, %d workers, tolerance %.2fx time / %.2fx allocs)\n",
		baseline.Name, baselinePath, baseline.Scale, baseline.Nq, baseline.K, baseline.Workers, tolerance, allocTolerance)
	table, fresh, err := suite.RunMeasured(baseline.Name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
		return 1
	}
	table.Fprint(os.Stdout)
	if jsonDir != "" {
		if path, err := bench.WriteJSON(jsonDir, fresh); err == nil {
			fmt.Fprintf(os.Stderr, "kspbench: wrote %s\n", path)
		} else {
			fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
		}
	}
	failed := false
	if err := bench.CheckRegression(baseline, fresh, tolerance); err != nil {
		fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
		failed = true
	}
	if err := bench.CheckAllocRegression(baseline, fresh, allocTolerance); err != nil {
		fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
		failed = true
	}
	if failed {
		return 1
	}
	fmt.Printf("kspbench: %s within tolerance: %.3fms/op vs baseline %.3fms/op (%.2fx <= %.2fx), %d allocs vs baseline %d\n",
		baseline.Name, float64(fresh.NsPerOp)/1e6, float64(baseline.NsPerOp)/1e6,
		float64(fresh.NsPerOp)/float64(baseline.NsPerOp), tolerance, fresh.Allocs, baseline.Allocs)
	return 0
}
