package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kspdg/internal/workload"
)

// Metrics is the machine-readable record of one experiment run, written as
// BENCH_<name>.json so the perf trajectory can be tracked across commits
// instead of living only in captured plain-text tables.  Reference runs are
// committed at the repository root (e.g. BENCH_rpc.json, the TCP request
// pipeline recorded by `kspbench -exp rpc -json .`); CI re-exercises the
// emitter with tiny sizes on every push.  The naming is load-bearing: the
// BENCH_ prefix is what downstream tooling greps for, so new experiments
// should record their artifacts the same way.
type Metrics struct {
	Name    string `json:"name"`
	Title   string `json:"title"`
	Scale   string `json:"scale"`
	Nq      int    `json:"nq"`
	Xi      int    `json:"xi"`
	K       int    `json:"k"`
	Workers int    `json:"workers"`
	Seed    int64  `json:"seed"`

	// ElapsedNs is the wall-clock time of the whole experiment; NsPerOp
	// divides it by the number of table rows (the experiment's unit of work).
	ElapsedNs int64 `json:"elapsed_ns"`
	NsPerOp   int64 `json:"ns_per_op"`
	// Allocs and AllocBytes are the heap allocation deltas over the run
	// (runtime.MemStats Mallocs / TotalAlloc).
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`

	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// scaleName renders the suite's scale for the metrics record.
func (s *Suite) scaleName() string {
	switch s.Scale {
	case workload.ScaleSmall:
		return "small"
	case workload.ScaleMedium:
		return "medium"
	default:
		return "tiny"
	}
}

// RunMeasured runs one experiment and captures wall time and allocation
// counters alongside the table.
func (s *Suite) RunMeasured(name string) (*Table, Metrics, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	table, err := s.Run(name)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, Metrics{}, err
	}
	m := Metrics{
		Name:       table.Name,
		Title:      table.Title,
		Scale:      s.scaleName(),
		Nq:         s.Nq,
		Xi:         s.Xi,
		K:          s.K,
		Workers:    s.Workers,
		Seed:       s.Seed,
		ElapsedNs:  elapsed.Nanoseconds(),
		NsPerOp:    elapsed.Nanoseconds() / int64(max(len(table.Rows), 1)),
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Columns:    table.Columns,
		Rows:       table.Rows,
		Notes:      table.Notes,
	}
	return table, m, nil
}

// WriteJSON writes the metrics as BENCH_<name>.json in dir, creating the
// directory if needed.
func WriteJSON(dir string, m Metrics) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", m.Name))
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
