// Command kspbench regenerates the tables and figures of the paper's
// evaluation section against the scale-model datasets.
//
// Usage:
//
//	kspbench -list
//	kspbench -exp fig35
//	kspbench -exp all -scale small -nq 200 -workers 8
//	kspbench -exp fig43 -cpuprofile cpu.pprof -memprofile alloc.pprof
//
// Each experiment prints a plain-text table whose rows correspond to the
// series the paper plots.  Serving performance is measured by the end-to-end
// benchmark in benchmark/ (see benchmark/README.md), not here.
//
// -cpuprofile and -memprofile write pprof profiles covering the run.
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
	cpuProfile = flag.String("cpuprofile", "", "write a CPU pprof profile covering the run to this file")
	memProfile = flag.String("memprofile", "", "write a heap (alloc) pprof profile at the end of the run to this file")
)

func main() {
	flag.Parse()
	os.Exit(run())
}

// run carries the whole invocation so profile writers flush before the
// process exits.
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

	if *list {
		for _, name := range bench.Experiments() {
			title, _ := bench.Describe(name)
			fmt.Printf("%-18s %s\n", name, title)
		}
		return 0
	}

	suite := bench.DefaultSuite()
	var err error
	if suite.Scale, err = workload.ParseScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
		return 2
	}
	suite.Nq = map[workload.Scale]int{workload.ScaleTiny: 60, workload.ScaleSmall: 150, workload.ScaleMedium: 300}[suite.Scale]
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
		table, err := suite.Run(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kspbench: %v\n", err)
			return 1
		}
		table.Fprint(os.Stdout)
	}
	return 0
}
