package main

import (
	"encoding/json"
	"time"
)

// The tables in this file are the benchmark's contract: workload names,
// metric names, units, directions and bounds.  BENCHMARK.json at the root of
// the repository is `-spec` of these tables and a test keeps the two equal.
// Later changes are measured with this ruler, so names here are final.

// A query that is not answered 200 within sloMs of when it was due misses the
// SLO.  Every query carries Request-Timeout-Ms: timeoutMs, four times that:
// a slow answer is then an SLO miss, not a failed operation, and the deadline
// still keeps a runaway search from holding a worker for seconds.
const (
	sloMs     = 250
	timeoutMs = 1000
)

// The deployment every workload shares (see deploy.go for the stack).
const (
	// The road network is one fixed network, as the paper's are: the seed
	// decides the trips and the traffic on it, not the roads.
	networkSeed = 1
	// tripSeed fixes the trips and the traffic too; see buildSchedule.
	tripSeed    = 2
	gridWidth   = 30
	gridHeight  = 20
	numWorkers  = 2
	dtlpXi      = 3
	trafficTau  = 0.3
	warmQueries = 100
	// burstBatches update batches are posted back to back before the first
	// lap and after every lap.
	burstBatches = 40
	// closedClients is the number of load-generating goroutines of a closed
	// loop: the box has 2 vCPUs and the generator shares them with the
	// system under test.
	closedClients = 2
	// nominalLapSeconds sizes a lap: laps are count-based, and the counts
	// below take about this long at the reference magnitudes in the README.
	nominalLapSeconds = 5
	minLaps           = 3
	// A lap whose steal exceeds this share of its CPU capacity is dirty, and
	// a run makes up to extraLaps more laps to reach its clean count.
	stealLimit = 0.02
	extraLaps  = 2
)

// workloadSpec fixes one workload's shape.  A lap replays a fixed, seeded
// event list; nothing here depends on how fast the system answers.
type workloadSpec struct {
	Name string
	Why  string
	// Open loops send on a schedule (Poisson arrivals at Rate per second)
	// whatever the system does; closed loops have closedClients callers that
	// each wait for the reply before pulling the next event.
	Open bool
	Rate float64
	// Z is the subgraph size the graph is partitioned with, K the number of
	// paths asked for, R the Chebyshev radius on the grid within which a
	// query's endpoints lie.
	Z, K, R int
	// Hubs > 0 makes queries commute-shaped: the target is one of Hubs fixed
	// vertices and the source lies within R of it.
	Hubs       int
	LapQueries int
	// Updates: a closed loop posts a batch before every UpdateEvery-th
	// query position; an open loop posts one every UpdateInterval.
	UpdateEvery    int
	UpdateInterval time.Duration
	// Alpha is the share of edges a batch moves.
	Alpha float64
	// TripSeed fixes the trips and the traffic; see buildSchedule.  Each was
	// picked among the first dozen seeds for a pool whose heaviest trip stays
	// under 600 filter/refine iterations on four of the lap's weight states.
	TripSeed int64
}

var workloads = []workloadSpec{
	{
		Name: "local-closed",
		Why:  "closed loop, small subgraphs, short trips: many cheap filter/refine rounds, so core and the rpcbatch/cluster wire do the work and shortest almost none",
		Z:    80, K: 3, R: 6, LapQueries: 2000, UpdateEvery: 400, Alpha: 0.05, TripSeed: 5,
	},
	{
		Name: "coarse-closed",
		Why:  "closed loop, 4 big subgraphs, k=8: few heavy rounds, so worker-side Yen (shortest, cluster.Worker) does the work and core little; also the largest dtlp.Build",
		Z:    200, K: 8, R: 8, LapQueries: 1000, UpdateEvery: 300, Alpha: 0.05, TripSeed: 4,
	},
	{
		Name: "commute-open",
		Why:  "open loop, Poisson 100/s towards 8 hubs: repeated and overlapping queries, the only workload where the serve cache, coalescing and rpcbatch dedup have anything to do",
		Open: true, Rate: 100,
		Z: 80, K: 3, R: 6, Hubs: 8, LapQueries: 500, UpdateInterval: 2 * time.Second, Alpha: 0.05, TripSeed: 10,
	},
	{
		Name: "rush-mixed",
		Why:  "open loop, Poisson 60/s beside 10 update batches/s moving 20% of edges: the index is read and written at once, so dtlp maintenance, the store WAL and the cluster broadcast show",
		Open: true, Rate: 60,
		Z: 80, K: 3, R: 6, LapQueries: 300, UpdateInterval: 100 * time.Millisecond, Alpha: 0.2, TripSeed: 11,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec names one metric.  Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The bounds are three times the widest spread (quartile distance over median
// of ten runs with ten seeds) any workload showed on the 2-vCPU guest the
// benchmark was written on, capped at 0.25: that guest's speed drifts by a
// tenth over minutes, whatever it runs.  The README has the measurements.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"slo_ok_share", "share", "higher", 0.02},
	{"exact_share", "share", "higher", 0.05},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"index_heap_mb", "MB", "lower", 0.03},
	{"update_ms_p50", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
}

var perLayer = []metricSpec{
	{"harness.steal_share", "share", "lower", 0},
	{"harness.laps_discarded", "count", "lower", 0},
	{"harness.gen_late_ms_p99", "ms", "lower", 0},
	{"harness.trace_overhead_share", "share", "lower", 0},

	{"gateway.latency_ms_p99", "ms", "lower", 0},
	{"gateway.http_ms_per_query", "ms", "lower", 0},
	{"gateway.admission_ms_per_query", "ms", "lower", 0},
	{"gateway.shed_share", "share", "lower", 0},
	{"gateway.update_ms_p50", "ms", "lower", 0},
	{"gateway.update_ms_p95", "ms", "lower", 0},
	{"gateway.validate_ms_per_batch", "ms", "lower", 0},

	{"serve.queue_ms_per_query", "ms", "lower", 0},
	{"serve.self_ms_per_query", "ms", "lower", 0},
	{"serve.cache_hit_share", "share", "higher", 0},
	{"serve.coalesced_share", "share", "higher", 0},
	{"serve.budget_terminated_share", "share", "lower", 0},
	{"serve.non_converged_share", "share", "lower", 0},
	{"serve.canceled_share", "share", "lower", 0},

	{"core.iterations_per_query", "count", "lower", 0},
	{"core.iterations_p99", "count", "lower", 0},
	{"core.filter_ms_per_query", "ms", "lower", 0},
	{"core.refine_wait_ms_per_query", "ms", "lower", 0},
	{"core.pairs_refined_per_query", "count", "lower", 0},
	{"core.engine_local_ms_p50", "ms", "lower", 0},

	{"rpcbatch.rounds_per_query", "count", "lower", 0},
	{"rpcbatch.round_ms_p50", "ms", "lower", 0},
	{"rpcbatch.batches_per_query", "count", "lower", 0},
	{"rpcbatch.pairs_per_batch", "count", "higher", 0},
	{"rpcbatch.wait_ms_per_round", "ms", "lower", 0},
	{"rpcbatch.dedup_share", "share", "higher", 0},
	{"rpcbatch.memo_hit_share", "share", "higher", 0},

	{"cluster.rpc_ms_p50", "ms", "lower", 0},
	{"cluster.wire_ms_per_batch", "ms", "lower", 0},
	{"cluster.worker_exec_ms_per_query", "ms", "lower", 0},
	{"cluster.worker_pairs_balance", "ratio", "lower", 0},
	{"cluster.broadcast_ms_per_batch", "ms", "lower", 0},

	{"shortest.pair_yen_ms_per_pair", "ms", "lower", 0},
	{"shortest.pair_yen_per_query", "count", "lower", 0},
	{"shortest.oracle_yen_ms_p50", "ms", "lower", 0},

	{"dtlp.build_s", "s", "lower", 0},
	{"dtlp.rebuild_ms_per_batch", "ms", "lower", 0},
	{"dtlp.paths_crossing_per_batch", "count", "lower", 0},
	{"dtlp.skeleton_vertices", "count", "lower", 0},
	{"dtlp.skeleton_edges", "count", "lower", 0},
	{"dtlp.bounding_paths", "count", "lower", 0},
	{"dtlp.ep_index_entries", "count", "lower", 0},

	{"store.wal_append_ms_p50", "ms", "lower", 0},
	{"store.wal_append_ms_p95", "ms", "lower", 0},
	{"store.wal_bytes_per_batch", "B", "lower", 0},
	{"store.snapshot_s", "s", "lower", 0},
	{"store.snapshot_mb", "MB", "lower", 0},
	{"store.recover_s", "s", "lower", 0},
	{"store.replayed_batches", "count", "lower", 0},

	{"partition.partition_s", "s", "lower", 0},
	{"partition.subgraphs", "count", "lower", 0},
	{"partition.boundary_share", "share", "lower", 0},

	{"runtime.allocs_per_query", "count", "lower", 0},
	{"runtime.alloc_kb_per_query", "kB", "lower", 0},
	{"runtime.gc_cpu_share", "share", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
}

func findMetric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// benchmarkJSON renders the tables as the BENCHMARK.json the driver reads.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
