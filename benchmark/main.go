// Command benchmark is the repository's end-to-end benchmark: it boots the
// shipped deployment shape in one process, drives it over HTTP with fixed,
// seeded schedules replayed in laps, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1) of one
// workload.  See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run; empty runs all four, untraced and then traced")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Int("seconds", 15, "time to measure; laps are count-based, and this fixes how many are made")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics on the deployment as shipped; 1: per-layer metrics from traced laps")
		aa           = flag.Int("aa", 0, "run two alternating sets of this many runs of every workload (or of -workload) and compare them")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if err := realMain(*workloadName, *seed, *seconds, *traced == 1, *aa, *spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds int, traced bool, aa int, spec bool) error {
	if spec {
		out, err := benchmarkJSON(seconds)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	if aa > 0 {
		return runAA(aa, seconds, name)
	}
	// Everything the run writes stays inside the checkout it was started in.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	cfg := runConfig{Seed: seed, Seconds: seconds, WorkDir: workDir, OutDir: "benchmark/out"}

	// One workload in one mode, as the driver asks for it, or all of them in
	// both; only then do metric names need their workload in front.
	targets, modes, prefix := workloads, []bool{false, true}, true
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		targets, modes, prefix = []workloadSpec{w}, []bool{traced}, false
	}
	all := make(map[string]metricValue)
	attempted, failed := 0, 0
	for _, w := range targets {
		for _, tr := range modes {
			cfg.W, cfg.Trace = w, tr
			rep, err := run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printReport(rep)
			attempted += rep.Attempted
			failed += rep.Failed
			for metric, v := range rep.Metrics {
				if prefix {
					metric = w.Name + "/" + metric
				}
				all[metric] = v
			}
		}
	}
	return printResult(attempted, failed, all)
}

// printReport lists a run's metrics by name, in the order of spec.go.
func printReport(rep *report) {
	kind := "end to end"
	list := endToEnd
	if rep.Trace {
		kind, list = "per layer (traced laps)", perLayer
	}
	fmt.Printf("\n%s · seed %d · %s · schedule %s · %d laps, %d discarded (steal %.4f of capacity) · %d operations, %d failed\n",
		rep.Workload, rep.Seed, kind, rep.Digest, rep.Laps, rep.Discarded, rep.StealShare, rep.Attempted, rep.Failed)
	for _, m := range list {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-36s %14.4f %-6s %s is better", m.Name, v.Value, v.Unit, m.Better)
		if m.Bound > 0 {
			line += fmt.Sprintf(", bound %.3f", m.Bound)
		}
		fmt.Println(line)
	}
}

// printResult prints the line the driver reads, last.  A run whose answers
// were wrong never gets here: it exits non-zero instead.
func printResult(attempted, failed int, metrics map[string]metricValue) error {
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{true, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", out)
	return nil
}
