package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kspdg/internal/core"
)

// setupRepeats is how often an untraced run sets the deployment up: set-up
// happens once per run otherwise, and one sample cannot carry a median.
const setupRepeats = 3

type runConfig struct {
	W       workloadSpec
	Seed    int64
	Seconds int
	// Laps overrides the number of laps Seconds stands for (the smoke test).
	Laps  int
	Trace bool
	// WorkDir receives the data directories, OutDir the trace files.
	WorkDir, OutDir string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload produced.
type report struct {
	Workload  string
	Seed      int64
	Trace     bool
	Digest    string
	Attempted int
	Failed    int
	Laps      int
	Discarded int
	// StealShare is the share of the laps' CPU capacity the hypervisor took.
	StealShare float64
	Metrics    map[string]metricValue
	// SpanMs holds, for a traced run, the summed duration of the spans of
	// each name, plus "request /v1/ksp" from the gateway's own histogram.
	SpanMs map[string]float64
}

func (r *report) set(name string, v float64) {
	m, ok := findMetric(name)
	if !ok {
		panic("metric " + name + " is not in spec.go")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
}

// laps turns the time to measure into a number of laps.  Laps are
// count-based and take about nominalLapSeconds each at today's speed, so the
// same --seconds always means the same work, on any commit.
func (cfg runConfig) laps() int {
	if cfg.Laps > 0 {
		return cfg.Laps
	}
	return max(minLaps, cfg.Seconds/nominalLapSeconds)
}

func run(cfg runConfig) (*report, error) {
	ds, err := roadNetwork()
	if err != nil {
		return nil, err
	}
	sched := buildSchedule(cfg.W, ds.Graph, cfg.Seed, cfg.laps()+extraLaps)
	rep := &report{
		Workload: cfg.W.Name, Seed: cfg.Seed, Trace: cfg.Trace,
		Digest: sched.digest(), Metrics: make(map[string]metricValue),
	}
	if cfg.Trace {
		return rep, runTraced(cfg, sched, rep)
	}
	return rep, runPlain(cfg, sched, rep)
}

// runPlain measures the end-to-end metrics on the deployment as shipped.
func runPlain(cfg runConfig, sched schedule, rep *report) error {
	var d *deployment
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = deploy(cfg.W, cfg.WorkDir, nil); err != nil {
			return err
		}
		setups = append(setups, d.setup.total.Seconds())
	}
	defer d.close()
	dr := newDriver(cfg.W, sched, d)
	defer dr.close()
	if err := dr.warmUp(); err != nil {
		return err
	}
	laps, err := dr.measure(cfg.laps(), true)
	if err != nil {
		return err
	}
	verdict, err := dr.checkAnswers(laps)
	if err != nil {
		return err
	}
	rec, err := dr.recoverAndCheck()
	if err != nil {
		return err
	}

	rep.count(laps)
	used := cleanLaps(laps)
	var qps, cpu []float64
	var pooled lapSummary
	for _, l := range used {
		s := summarize(l)
		qps = append(qps, float64(s.WithinSLO)/l.Wall.Seconds())
		cpu = append(cpu, cpuMsPerQuery(l, s))
		pooled.merge(s)
	}
	rep.set("setup_s", median(setups))
	rep.set("qps", median(qps))
	rep.set("latency_ms_p50", quantile(pooled.LatencyMs, 0.50))
	rep.set("slo_ok_share", float64(pooled.WithinSLO)/float64(pooled.Queries))
	rep.set("exact_share", float64(verdict.Exact)/float64(max(verdict.Answers, 1)))
	rep.set("cpu_ms_per_query", median(cpu))
	rep.set("index_heap_mb", d.heapMB)
	rep.set("update_ms_p50", median(dr.burstMs))
	rep.set("recover_s", rec.Seconds)
	return nil
}

func cpuMsPerQuery(l lap, s lapSummary) float64 {
	return float64(l.CPU) / float64(time.Millisecond) / float64(s.Queries)
}

// count fills in how many laps the run made and how much of them was stolen,
// and the operations of the laps its metrics use: what failed while the
// hypervisor ran something else is not the system's doing.
func (r *report) count(laps []lap) {
	used := cleanLaps(laps)
	r.Laps = len(laps)
	r.Discarded = len(laps) - len(used)
	var stolen, capacity float64
	for _, l := range laps {
		stolen += l.StealShare * l.Wall.Seconds()
		capacity += l.Wall.Seconds()
	}
	r.StealShare = stolen / capacity
	for _, l := range used {
		r.Attempted += len(l.Samples)
		for _, s := range l.Samples {
			if s.Status != http.StatusOK {
				r.Failed++
			}
		}
	}
}

// lapSummary is what the samples of one or more laps add up to.
type lapSummary struct {
	Queries, WithinSLO, Shed int
	LatencyMs                []float64 // 200 answers, from when they were due
	RTTms                    float64   // all queries, from when they were sent
	UpdateMs                 []float64
	LateMs                   []float64 // how late the generator sent each event
	Iterations               []float64
}

func summarize(l lap) lapSummary {
	var s lapSummary
	for _, smp := range l.Samples {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		s.LateMs = append(s.LateMs, ms(smp.Sent-smp.Due))
		if l.Events[smp.Event].Update >= 0 {
			s.UpdateMs = append(s.UpdateMs, ms(smp.Done-smp.Due))
			continue
		}
		s.Queries++
		s.RTTms += ms(smp.Done - smp.Sent)
		if smp.withinSLO() {
			s.WithinSLO++
		}
		switch smp.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			s.Shed++
		}
		if a := smp.Answer; a != nil {
			s.LatencyMs = append(s.LatencyMs, ms(smp.Done-smp.Due))
			s.Iterations = append(s.Iterations, float64(a.Iterations))
		}
	}
	return s
}

func (s *lapSummary) merge(o lapSummary) {
	s.Queries += o.Queries
	s.WithinSLO += o.WithinSLO
	s.Shed += o.Shed
	s.RTTms += o.RTTms
	s.LatencyMs = append(s.LatencyMs, o.LatencyMs...)
	s.UpdateMs = append(s.UpdateMs, o.UpdateMs...)
	s.LateMs = append(s.LateMs, o.LateMs...)
	s.Iterations = append(s.Iterations, o.Iterations...)
}

// runTraced produces the per-layer ledger.  One lap on the deployment as
// shipped gives the baseline the tracing overhead is measured against and
// the runtime's allocation numbers; the remaining laps run on a deployment
// with the tracer, the decorators and the Observe hook installed.
func runTraced(cfg runConfig, sched schedule, rep *report) error {
	base, err := baselineLap(cfg, sched)
	if err != nil {
		return err
	}
	led := newLedger()
	d, err := deploy(cfg.W, cfg.WorkDir, led)
	if err != nil {
		return err
	}
	defer d.close()
	dr := newDriver(cfg.W, sched, d)
	defer dr.close()
	if err := dr.warmUp(); err != nil {
		return err
	}
	led.reset()
	before, err := readCounters(d)
	if err != nil {
		return err
	}
	laps, err := dr.measure(max(1, cfg.laps()-1), false)
	if err != nil {
		return err
	}
	after, err := readCounters(d)
	if err != nil {
		return err
	}
	grown := after.since(before)
	verdict, err := dr.checkAnswers(laps)
	if err != nil {
		return err
	}
	localMs, err := engineLocal(d, sched, cfg.W.K)
	if err != nil {
		return err
	}
	crossing := 0
	for _, b := range sched.Batches {
		crossing += d.index.PathsCrossing(b)
	}
	rec, err := dr.recoverAndCheck()
	if err != nil {
		return err
	}

	// The ledger covers every traced lap, so the sums below are divided by
	// every traced lap's queries; steal is reported, not filtered, here.
	all := append([]lap{base.lap}, laps...)
	rep.count(all)
	var sum lapSummary
	var cpu []float64
	for _, l := range laps {
		s := summarize(l)
		cpu = append(cpu, cpuMsPerQuery(l, s))
		sum.merge(s)
	}
	q := float64(sum.Queries)
	span := func(name string) float64 { ms, _ := led.span(name); return ms }
	mean := func(name string) float64 {
		ms, n := led.span(name)
		return ms / max(n, 1)
	}
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	rep.set("harness.steal_share", rep.StealShare)
	rep.set("harness.laps_discarded", float64(rep.Discarded))
	rep.set("harness.gen_late_ms_p99", quantile(sum.LateMs, 0.99))
	rep.set("harness.trace_overhead_share", median(cpu)/base.cpuMsPerQuery-1)

	requestMs := grown.requestSeconds * 1000
	rep.SpanMs = map[string]float64{"request /v1/ksp": requestMs}
	for name, s := range led.totals() {
		rep.SpanMs[name] = float64(s.Total) / float64(time.Millisecond)
	}
	rep.set("gateway.latency_ms_p99", quantile(sum.LatencyMs, 0.99))
	rep.set("gateway.http_ms_per_query", (sum.RTTms-requestMs)/q)
	rep.set("gateway.admission_ms_per_query", mean("admission"))
	rep.set("gateway.shed_share", float64(sum.Shed)/q)
	rep.set("gateway.update_ms_p50", quantile(sum.UpdateMs, 0.50))
	rep.set("gateway.update_ms_p95", quantile(sum.UpdateMs, 0.95))
	rep.set("gateway.validate_ms_per_batch", mean("validate"))

	rep.set("serve.queue_ms_per_query", span("queue")/q)
	rep.set("serve.self_ms_per_query", (span("execute")-span("filter")-span("refine"))/q)
	rep.set("serve.cache_hit_share", grown.cacheHits/q)
	rep.set("serve.coalesced_share", grown.coalesced/q)
	rep.set("serve.budget_terminated_share", grown.budgetTerminated/q)
	rep.set("serve.non_converged_share", grown.nonConverged/q)
	rep.set("serve.canceled_share", grown.canceled/q)

	rounds := float64(len(led.rounds))
	rep.set("core.iterations_per_query", sumOf(sum.Iterations)/max(float64(len(sum.Iterations)), 1))
	rep.set("core.iterations_p99", quantile(sum.Iterations, 0.99))
	rep.set("core.filter_ms_per_query", span("filter")/q)
	rep.set("core.refine_wait_ms_per_query", span("refine")/q)
	rep.set("core.pairs_refined_per_query", float64(led.roundPairs)/q)
	rep.set("core.engine_local_ms_p50", quantile(localMs, 0.50))

	rep.set("rpcbatch.rounds_per_query", rounds/q)
	rep.set("rpcbatch.round_ms_p50", quantile(durationsMs(led.rounds), 0.50))
	rep.set("rpcbatch.batches_per_query", grown.batches/q)
	rep.set("rpcbatch.pairs_per_batch", share(grown.pairsSent, grown.batches))
	rep.set("rpcbatch.wait_ms_per_round", share(span("rpc_wait"), rounds))
	rep.set("rpcbatch.dedup_share", share(grown.dedupHits, grown.enqueued))
	rep.set("rpcbatch.memo_hit_share", share(grown.memoHits, grown.enqueued))

	_, rpcs := led.span("rpc")
	var maxPairs, totalPairs float64
	for _, p := range grown.workerPairs {
		maxPairs = max(maxPairs, p)
		totalPairs += p
	}
	rep.set("cluster.rpc_ms_p50", quantile(durationsMs(led.rpc), 0.50))
	rep.set("cluster.wire_ms_per_batch", share(span("rpc")-span("worker_exec"), rpcs))
	rep.set("cluster.worker_exec_ms_per_query", span("worker_exec")/q)
	rep.set("cluster.worker_pairs_balance", share(maxPairs, totalPairs/numWorkers))
	rep.set("cluster.broadcast_ms_per_batch", sumOf(durationsMs(led.broadcast))/max(float64(len(led.broadcast)), 1))

	_, yens := led.span("pair_yen")
	rep.set("shortest.pair_yen_ms_per_pair", mean("pair_yen"))
	rep.set("shortest.pair_yen_per_query", yens/q)
	rep.set("shortest.oracle_yen_ms_p50", quantile(verdict.OracleMs, 0.50))

	ist := d.index.Stats()
	rep.set("dtlp.build_s", d.setup.build.Seconds())
	rep.set("dtlp.rebuild_ms_per_batch", mean("rebuild"))
	rep.set("dtlp.paths_crossing_per_batch", share(float64(crossing), float64(len(sched.Batches))))
	rep.set("dtlp.skeleton_vertices", float64(ist.SkeletonVertices))
	rep.set("dtlp.skeleton_edges", float64(ist.SkeletonEdges))
	rep.set("dtlp.bounding_paths", float64(ist.NumBoundingPaths))
	rep.set("dtlp.ep_index_entries", float64(ist.EPIndexEntries))

	appends := durationsMs(led.walAppend)
	rep.set("store.wal_append_ms_p50", quantile(appends, 0.50))
	rep.set("store.wal_append_ms_p95", quantile(appends, 0.95))
	rep.set("store.wal_bytes_per_batch", share(grown.walBytes, float64(len(appends))))
	rep.set("store.snapshot_s", d.setup.snapshot.Seconds())
	rep.set("store.snapshot_mb", float64(d.setup.snapshotBytes)/(1<<20))
	rep.set("store.recover_s", rec.Seconds)
	rep.set("store.replayed_batches", float64(rec.Replayed))

	rep.set("partition.partition_s", d.setup.partition.Seconds())
	rep.set("partition.subgraphs", float64(d.part.NumSubgraphs()))
	rep.set("partition.boundary_share", float64(len(d.part.BoundaryVertices()))/float64(d.graph.NumVertices()))

	bq := float64(base.summary.Queries)
	rep.set("runtime.allocs_per_query", float64(base.lap.Mallocs)/bq)
	rep.set("runtime.alloc_kb_per_query", float64(base.lap.AllocBytes)/1024/bq)
	rep.set("runtime.gc_cpu_share", base.lap.GCCPU/base.lap.CPU.Seconds())
	rep.set("runtime.heap_peak_mb", base.heapPeakMB)

	return writeTrace(cfg, rep, led, d)
}

// heapRetainedMB is the heap memory the process holds from the operating
// system: the runtime releases it lazily, so after a lap it stands for the
// lap's peak.
func heapRetainedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys-ms.HeapReleased) / (1 << 20)
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// baseline is one lap on the untraced deployment.
type baseline struct {
	lap           lap
	summary       lapSummary
	cpuMsPerQuery float64
	heapPeakMB    float64
}

func baselineLap(cfg runConfig, sched schedule) (baseline, error) {
	d, err := deploy(cfg.W, cfg.WorkDir, nil)
	if err != nil {
		return baseline{}, err
	}
	defer d.close()
	dr := newDriver(cfg.W, sched, d)
	defer dr.close()
	if err := dr.warmUp(); err != nil {
		return baseline{}, err
	}
	l, err := dr.runLap()
	if err != nil {
		return baseline{}, err
	}
	s := summarize(l)
	return baseline{lap: l, summary: s, cpuMsPerQuery: cpuMsPerQuery(l, s), heapPeakMB: heapRetainedMB()}, nil
}

// engineLocal answers the lap's first queries by calling the engine directly
// over a local provider on the same index: the query with no transport, no
// serve and no gateway around it.
func engineLocal(d *deployment, sched schedule, k int) ([]float64, error) {
	eng := core.NewEngine(d.index, core.NewLocalProvider(d.index.Partition(), 0), core.Options{})
	view := d.index.CurrentView()
	var out []float64
	for _, e := range sched.Laps[0] {
		if e.Update >= 0 {
			continue
		}
		t := time.Now()
		if _, err := eng.QueryViewCtx(context.Background(), view, e.Q.S, e.Q.T, k); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t))/float64(time.Millisecond))
		if len(out) == 300 {
			break
		}
	}
	return out, nil
}

// counters are the running totals the layers expose; the traced run reports
// their growth over its laps.
type counters struct {
	cacheHits, coalesced, budgetTerminated, nonConverged, canceled float64 // serve.Stats
	batches, pairsSent, enqueued, dedupHits, memoHits              float64 // rpcbatch.Stats
	workerPairs                                                    []float64
	requestSeconds                                                 float64 // gateway_request_seconds_sum{route="/v1/ksp"}
	walBytes                                                       float64
}

func readCounters(d *deployment) (counters, error) {
	sv, bt := d.srv.Stats(), d.provider.BatchStats()
	c := counters{
		cacheHits: float64(sv.CacheHits), coalesced: float64(sv.Coalesced), canceled: float64(sv.Canceled),
		budgetTerminated: float64(sv.BudgetTerminated), nonConverged: float64(sv.NonConverged),
		batches: float64(bt.Batches), pairsSent: float64(bt.PairsSent), enqueued: float64(bt.Enqueued),
		dedupHits: float64(bt.DedupHits), memoHits: float64(bt.CacheHits),
		walBytes: float64(dirBytes(d.dir, "wal-")),
	}
	for _, remote := range d.remotes {
		st, err := remote.Stats()
		if err != nil {
			return c, err
		}
		c.workerPairs = append(c.workerPairs, float64(st.PairsServed))
	}
	var buf bytes.Buffer
	if _, err := d.gw.Registry().WriteTo(&buf); err != nil {
		return c, err
	}
	const key = `gateway_request_seconds_sum{route="/v1/ksp"} `
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return c, fmt.Errorf("parsing %q: %w", line, err)
			}
			c.requestSeconds = v
		}
	}
	return c, nil
}

// since returns how much every counter grew from before to c.
func (c counters) since(before counters) counters {
	g := counters{
		cacheHits: c.cacheHits - before.cacheHits, coalesced: c.coalesced - before.coalesced,
		budgetTerminated: c.budgetTerminated - before.budgetTerminated,
		nonConverged:     c.nonConverged - before.nonConverged, canceled: c.canceled - before.canceled,
		batches: c.batches - before.batches, pairsSent: c.pairsSent - before.pairsSent,
		enqueued: c.enqueued - before.enqueued, dedupHits: c.dedupHits - before.dedupHits,
		memoHits:       c.memoHits - before.memoHits,
		requestSeconds: c.requestSeconds - before.requestSeconds, walBytes: c.walBytes - before.walBytes,
	}
	for i := range c.workerPairs {
		g.workerPairs = append(g.workerPairs, c.workerPairs[i]-before.workerPairs[i])
	}
	return g
}

// writeTrace writes what the traced run accumulated: the span totals by
// name, the metrics derived from them and the traces the tracer retained
// (the slow, canceled and failed ones).
func writeTrace(cfg runConfig, rep *report, led *ledger, d *deployment) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	spans := make(map[string]map[string]float64)
	for name, s := range led.totals() {
		spans[name] = map[string]float64{
			"total_ms": float64(s.Total) / float64(time.Millisecond),
			"count":    float64(s.Count),
		}
	}
	doc := map[string]any{
		"workload": rep.Workload,
		"seed":     rep.Seed,
		"schedule": rep.Digest,
		"spans":    spans,
		"metrics":  rep.Metrics,
		"retained": d.tracer.Snapshot(64),
	}
	body, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.OutDir, "trace-"+rep.Workload+".json"), body, 0o644)
}
