package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"kspdg/internal/baseline"
	"kspdg/internal/workload"
)

// quickSuite returns a Suite small enough for unit tests.
func quickSuite() *Suite {
	return &Suite{Scale: workload.ScaleTiny, Nq: 8, Xi: 2, K: 2, Seed: 7, Workers: 2}
}

func TestExperimentsRegistry(t *testing.T) {
	names := Experiments()
	if len(names) < 30 {
		t.Fatalf("expected at least 30 registered experiments, got %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate experiment name %q", n)
		}
		seen[n] = true
		if title, ok := Describe(n); !ok || title == "" {
			t.Errorf("experiment %q has no title", n)
		}
	}
	// Every figure and table of the evaluation section must be covered.
	required := []string{"table1", "table3"}
	for f := 15; f <= 46; f++ {
		required = append(required, "fig"+itoa(f))
	}
	for _, r := range required {
		if !seen[r] {
			t.Errorf("missing experiment for %s", r)
		}
	}
	if _, ok := Describe("nonexistent"); ok {
		t.Errorf("Describe should fail for unknown experiments")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func TestRunUnknownExperiment(t *testing.T) {
	s := quickSuite()
	if _, err := s.Run("fig999"); err == nil {
		t.Errorf("unknown experiment should error")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Name: "demo", Title: "demo table", Columns: []string{"a", "bee"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("xyz", "w")
	tbl.Notes = append(tbl.Notes, "a note")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"demo table", "a", "bee", "xyz", "2.500", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// Representative cheap experiments from each group run end to end and
// produce non-empty tables.  In -short mode (the -race CI lane) only a
// cheap cross-section runs; the full list stays in the non-race lane.
func TestRepresentativeExperiments(t *testing.T) {
	s := quickSuite()
	names := []string{"table1", "table3", "fig15", "fig21", "fig24", "fig32", "fig35", "fig40", "fig41", "fig43", "loadbalance", "ablation-vfrag", "ablation-mfptree"}
	if testing.Short() {
		names = []string{"table1", "table3", "fig15", "fig35", "fig41"}
	}
	for _, name := range names {
		tbl, err := s.Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", name)
		}
		if len(tbl.Columns) == 0 {
			t.Errorf("%s has no columns", name)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s row width %d != %d columns", name, len(row), len(tbl.Columns))
			}
		}
	}
}

func TestComparisonShapes(t *testing.T) {
	// The comparison experiment produces one row per batch size, each with
	// parseable durations for all three algorithms, and Yen's batch time
	// grows (weakly) with Nq.
	s := quickSuite()
	tbl, err := s.Run("fig38")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatal("expected at least two batch sizes")
	}
	cusa, err := workload.BuiltinDataset("CUSA", s.Scale)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]workload.Query, len(tbl.Rows))
	for i, row := range tbl.Rows {
		if len(row) != 4 {
			t.Fatalf("row %d has %d cells", i, len(row))
		}
		for c := 1; c < 4; c++ {
			if parseMs(t, row[c]) < 0 {
				t.Errorf("negative duration in row %d", i)
			}
		}
		nq, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatalf("row %d: Nq %q: %v", i, row[0], err)
		}
		batches[i] = s.queries(cusa.Graph, nq)
	}
	// One wall-clock timing per row halves or doubles whenever other work
	// loads the box, so the growth claim is held on each row's fastest of
	// several rounds, the rows interleaved so that a stretch of load falls
	// on all of them alike.
	yen := baseline.NewYen(cusa.Graph)
	best := make([]time.Duration, len(batches))
	for round := 0; round < 5; round++ {
		for i, queries := range batches {
			d, err := runBaselineBatch(yen, queries, s.K)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	for i := 1; i < len(best); i++ {
		if best[i] < best[i-1]/2 {
			t.Errorf("Yen batch time should grow with Nq (row %d: %v after %v)", i, best[i], best[i-1])
		}
	}
}

func parseMs(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil {
		t.Fatalf("cannot parse duration %q: %v", s, err)
	}
	return v
}
