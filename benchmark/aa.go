package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAA measures the benchmark's own steadiness the way the driver does: two
// sets of n runs of this very binary per workload, each run with another
// seed and in a process of its own, the sets alternating.  For every
// workload and end-to-end metric it prints both medians, how much worse the
// worse one is, the spread of the first set (the distance between its
// quartiles as a share of its median) and whether both stay inside the
// metric's bound.  It returns an error when anything fails.
func runAA(n, seconds int, only string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failures := 0
	fmt.Printf("%-14s %-18s %12s %12s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "worse", "spread", "bound")
	for _, w := range workloads {
		if only != "" && only != w.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 1; i <= n; i++ {
			// B runs first on odd seeds and A on even ones, so that neither
			// set always follows the other.
			for _, set := range [][2]int{{0, 1}, {1, 0}}[i%2] {
				metrics, err := runChild(self, w.Name, i, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, i, err)
				}
				fmt.Fprintf(os.Stderr, "%s seed %d set %c:", w.Name, i, 'A'+set)
				for _, m := range endToEnd {
					sets[set][m.Name] = append(sets[set][m.Name], metrics[m.Name].Value)
					fmt.Fprintf(os.Stderr, " %s=%.4g", m.Name, metrics[m.Name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
		for _, m := range endToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			// How much worse the worse of the two medians is than the other.
			worse := math.Abs(a-b) / min(a, b)
			if m.Better == "higher" {
				worse = math.Abs(a-b) / max(a, b)
			}
			spread := quartileSpread(sets[0][m.Name])
			verdict := "PASS"
			if worse > m.Bound || (m.Name != "setup_s" && spread > m.Bound) {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %8.4f %8.4f %6.3f %s\n", w.Name, m.Name, a, b, worse, spread, m.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d workload x metric pairs outside their bound", failures)
	}
	return nil
}

// runChild runs one untraced run in a child process, which it waits for, and
// returns the metrics of the result line.
func runChild(self, workload string, seed, seconds int) (map[string]metricValue, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res struct {
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return res.Metrics, nil
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4), which is what the driver computes.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}
