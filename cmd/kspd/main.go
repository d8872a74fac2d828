// Command kspd runs the distributed KSP-DG deployment over TCP: worker
// processes host subgraphs and answer partial-KSP requests, and a master
// process builds the DTLP index, serves concurrent snapshot-isolated queries
// through the serve layer, and fans the refine step out to the workers — the
// same roles the paper assigns to SubgraphBolts and QueryBolts on Storm
// (Section 6.1).
//
// The master↔worker request path is an asynchronous batching pipeline:
// requests are tagged with IDs and multiplexed over a small connection pool
// per worker (-pool), and partial-KSP pair requests from different concurrent
// queries coalesce into shared batches (up to -batch-pairs pairs each) with
// cross-query deduplication.
//
// Processes either derive the dataset and partition deterministically from
// the shared flags, or — with -data-dir and -load-index — warm-start from a
// shared snapshot written by a previous run (or by kspgen), skipping DTLP
// construction entirely: the master recovers the full index and replays the
// update WAL, workers recover just the graph and partition.  With -data-dir
// the master also logs every applied update batch to the WAL and, with
// -snapshot-every, periodically rewrites the snapshot so restarts stay
// cheap.  The master replays a mixed workload: random queries flow through a
// bounded worker pool while weight-update batches land in between, each
// published as a new index epoch.
//
// Start two workers and a master on one machine:
//
//	kspd -mode worker -dataset NY -scale tiny -worker-id 0 -num-workers 2 -listen 127.0.0.1:7001 &
//	kspd -mode worker -dataset NY -scale tiny -worker-id 1 -num-workers 2 -listen 127.0.0.1:7002 &
//	kspd -mode master -dataset NY -scale tiny -num-workers 2 -connect 127.0.0.1:7001,127.0.0.1:7002 -queries 50 -k 3 -update-batches 3
//
// Cold-start once with persistence, then warm-start from the snapshot:
//
//	kspd -mode master -dataset NY -scale tiny -data-dir /var/lib/kspd -save-index -queries 10
//	kspd -mode master -data-dir /var/lib/kspd -load-index -queries 50 -update-batches 3
//
// Fault tolerance: with -replicas N every subgraph is hosted by N workers
// (the replica table is derived deterministically from the shared flags, so
// master and workers agree without coordination), worker health is tracked by
// -ping-every probes plus data-path outcomes, failed partial-KSP batches fail
// over to replicas, and -hedge-after optionally duplicates slow batches for
// tail latency.  All workers must be started with the same -replicas value:
//
//	kspd -mode worker -dataset NY -scale tiny -worker-id 0 -num-workers 2 -replicas 2 -listen 127.0.0.1:7001 &
//	kspd -mode worker -dataset NY -scale tiny -worker-id 1 -num-workers 2 -replicas 2 -listen 127.0.0.1:7002 &
//	kspd -mode master -dataset NY -scale tiny -num-workers 2 -replicas 2 -hedge-after 5ms \
//	    -connect 127.0.0.1:7001,127.0.0.1:7002 -queries 50 -k 3 -update-batches 3
//
// Topology mutations: -closures and -incidents weave road closures (an edge
// is deleted, later a new edge reopens between the same endpoints) and
// incidents (an edge is deleted while traffic spikes around it) into the
// scenario.  Each topology batch rebuilds only the touched subgraphs and is
// broadcast to every worker; with -replicas > 1 topology is rejected (the
// replica table is not extendable live yet).
//
// HTTP service: with -http the master skips the scenario replay and serves
// the JSON API (see internal/gateway: /v1/ksp, /v1/ksp/stream, /v1/updates,
// /v1/topology, /healthz, /metrics) until SIGINT/SIGTERM, then drains the
// listener and the query pool and — with -data-dir — writes a final snapshot.
// -tls-cert and -tls-key upgrade the listener to HTTPS:
//
//	kspd -mode master -dataset NY -scale tiny -http 127.0.0.1:8080 -http-rate 200
//	curl -s -X POST 127.0.0.1:8080/v1/ksp -d '{"source":3,"target":100,"k":2}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/gateway"
	"kspdg/internal/graph"
	"kspdg/internal/logx"
	"kspdg/internal/metrics"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/serve"
	"kspdg/internal/store"
	"kspdg/internal/trace"
	"kspdg/internal/workload"
)

// lg is the process-wide leveled key=value logger (see internal/logx); main
// replaces it once -log-level is parsed.
var lg = logx.New(os.Stdout, logx.LevelInfo)

func main() {
	var (
		mode       = flag.String("mode", "master", "role: worker or master")
		dataset    = flag.String("dataset", "NY", "built-in dataset (NY, COL, FLA, CUSA)")
		scaleName  = flag.String("scale", "tiny", "dataset scale: tiny, small, medium")
		z          = flag.Int("z", 0, "subgraph size (0 = dataset default)")
		xi         = flag.Int("xi", 3, "bounding paths per boundary pair")
		workerID   = flag.Int("worker-id", 0, "this worker's id (worker mode)")
		numWorkers = flag.Int("num-workers", 1, "total number of workers in the deployment")
		listen     = flag.String("listen", "127.0.0.1:7001", "listen address (worker mode)")
		connect    = flag.String("connect", "", "comma-separated worker addresses (master mode)")
		queries    = flag.Int("queries", 20, "number of random queries to run (master mode)")
		k          = flag.Int("k", 2, "k shortest paths per query (master mode)")
		seed       = flag.Int64("seed", 42, "workload seed")
		batches    = flag.Int("update-batches", 2, "weight-update batches interleaved with the queries (master mode)")
		closures   = flag.Int("closures", 0, "road closure/reopen pairs woven into the scenario: an edge is deleted and later reinserted between the same endpoints (master mode)")
		incidents  = flag.Int("incidents", 0, "road incidents woven into the scenario: an edge is deleted and traffic spikes on the streets around it (master mode)")
		alpha      = flag.Float64("alpha", 0.2, "fraction of edges perturbed per update batch")
		tau        = flag.Float64("tau", 0.3, "relative weight variation per update batch")
		conc       = flag.Int("concurrency", 0, "query worker pool size (0 = GOMAXPROCS)")
		maxIter    = flag.Int("max-iterations", 0, "hard cap on reference paths examined per query (0 = default 10000; master mode)")
		stallWin   = flag.Int("stall-window", 0, "adaptive iteration budget: terminate a query near-exactly (reporting its bound gap) after this many iterations without bound-gap progress (0 = default 64, negative disables; master mode)")
		pool       = flag.Int("pool", 2, "TCP connections per worker (master mode)")
		replicas   = flag.Int("replicas", 1, "workers hosting each subgraph; >1 enables health-checked failover (must match between master and workers)")
		hedgeAfter = flag.Duration("hedge-after", 0, "duplicate a partial-KSP batch to a replica when the primary is silent this long (master mode, needs -replicas > 1; 0 disables)")
		pingEvery  = flag.Duration("ping-every", 500*time.Millisecond, "worker health-check probe interval (master mode with -replicas > 1; 0 leaves detection to the data path)")
		batchPairs = flag.Int("batch-pairs", 0, "flush a coalesced partial-KSP batch at this many pairs (0 = default 64; master mode)")
		dataDir    = flag.String("data-dir", "", "persistence directory for index snapshots and the update WAL")
		saveIndex  = flag.Bool("save-index", false, "force a fresh snapshot in -data-dir after a warm start (cold starts with -data-dir always snapshot; master mode)")
		loadIndex  = flag.Bool("load-index", false, "warm-start from the newest snapshot in -data-dir instead of deriving the dataset from flags")
		snapEvery  = flag.Int("snapshot-every", 0, "rewrite the snapshot every N applied update batches (master mode, needs -data-dir)")
		httpAddr   = flag.String("http", "", "serve the HTTP API on this address instead of replaying a scenario (master mode); SIGINT/SIGTERM drains and exits")
		tlsCert    = flag.String("tls-cert", "", "TLS certificate file for the -http listener (with -tls-key)")
		tlsKey     = flag.String("tls-key", "", "TLS private key file for the -http listener (with -tls-cert)")
		httpRate   = flag.Float64("http-rate", 100, "per-API-key admission rate in requests/second on the HTTP API (negative disables)")
		httpBurst  = flag.Int("http-burst", 0, "per-API-key token-bucket burst (0 = the rate)")
		httpTmout  = flag.Duration("http-timeout", 30*time.Second, "default per-request deadline applied when clients send no Request-Timeout-Ms header (0 = none)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		pprofOn    = flag.Bool("pprof", false, "mount Go's net/http/pprof profiling handlers under /debug/pprof/ on the -http listener (master mode)")
		slowQuery  = flag.Duration("slow-query", 0, "log every query at least this slow with its trace id and per-stage breakdown; 0 logs only non-converged and budget-terminated outliers (master mode)")
		traceCap   = flag.Int("trace-capacity", 256, "retained query traces served on GET /debug/traces; 0 disables tracing (master mode)")
		traceSamp  = flag.Float64("trace-sample", 0.05, "probability a normal (fast, converged) query trace is retained; slow/non-converged/failed-over/canceled traces are always kept, negative keeps outliers only (master mode)")
	)
	flag.Parse()

	lvl, err := logx.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	lg = logx.New(os.Stdout, lvl)

	if (*tlsCert == "") != (*tlsKey == "") {
		fatal(fmt.Errorf("-tls-cert and -tls-key must be set together"))
	}
	if (*tlsCert != "" || *tlsKey != "") && *httpAddr == "" {
		fatal(fmt.Errorf("-tls-cert/-tls-key require -http"))
	}

	if *loadIndex && *dataDir == "" {
		fatal(fmt.Errorf("-load-index requires -data-dir"))
	}
	if (*saveIndex || *snapEvery > 0) && *dataDir == "" {
		fatal(fmt.Errorf("-save-index and -snapshot-every require -data-dir"))
	}

	switch *mode {
	case "worker":
		var part *partition.Partition
		if *loadIndex {
			start := time.Now()
			g, p, epoch, err := store.RecoverTopology(*dataDir)
			if err != nil {
				fatal(err)
			}
			part = p
			lg.Info("worker warm start",
				"worker", *workerID, "dir", *dataDir,
				"elapsed", time.Since(start).Round(time.Millisecond),
				"vertices", g.NumVertices(), "edges", g.NumEdges(),
				"subgraphs", part.NumSubgraphs(), "epoch", epoch)
		} else {
			_, p := deriveDataset(*dataset, *scaleName, *z)
			part = p
		}
		runWorker(part, *workerID, *numWorkers, *replicas, *listen)
	case "master":
		runMaster(masterConfig{
			dataset:    *dataset,
			scale:      *scaleName,
			z:          *z,
			xi:         *xi,
			connect:    *connect,
			queries:    *queries,
			k:          *k,
			seed:       *seed,
			batches:    *batches,
			closures:   *closures,
			incidents:  *incidents,
			alpha:      *alpha,
			tau:        *tau,
			conc:       *conc,
			maxIter:    *maxIter,
			stallWin:   *stallWin,
			pool:       *pool,
			replicas:   *replicas,
			hedgeAfter: *hedgeAfter,
			pingEvery:  *pingEvery,
			batch:      rpcbatch.Options{MaxPairs: *batchPairs},
			dataDir:    *dataDir,
			saveIndex:  *saveIndex,
			loadIndex:  *loadIndex,
			snapEvery:  *snapEvery,
			httpAddr:   *httpAddr,
			tlsCert:    *tlsCert,
			tlsKey:     *tlsKey,
			httpRate:   *httpRate,
			httpBurst:  *httpBurst,
			httpTmout:  *httpTmout,
			pprofOn:    *pprofOn,
			slowQuery:  *slowQuery,
			traceCap:   *traceCap,
			traceSamp:  *traceSamp,
		})
	default:
		fatal(fmt.Errorf("unknown mode %q (want worker or master)", *mode))
	}
}

// deriveDataset builds the dataset and partition deterministically from the
// shared flags (the cold-start path).
func deriveDataset(dataset, scaleName string, z int) (*workload.Dataset, *partition.Partition) {
	scale, err := parseScale(scaleName)
	if err != nil {
		fatal(err)
	}
	ds, err := workload.BuiltinDataset(dataset, scale)
	if err != nil {
		fatal(err)
	}
	if z <= 0 {
		z = ds.DefaultZ
	}
	part, err := partition.PartitionGraph(ds.Graph, z)
	if err != nil {
		fatal(err)
	}
	return ds, part
}

func parseScale(name string) (workload.Scale, error) {
	switch name {
	case "tiny":
		return workload.ScaleTiny, nil
	case "small":
		return workload.ScaleSmall, nil
	case "medium":
		return workload.ScaleMedium, nil
	}
	return 0, fmt.Errorf("unknown scale %q", name)
}

// runWorker serves the subgraphs assigned to workerID until interrupted:
// round-robin over the partition at replication factor 1 (the historical
// assignment), the shared replica table above that — every process derives
// the same table from the same flags, so the master's failover routing and
// the workers' ownership agree without coordination.
func runWorker(part *partition.Partition, workerID, numWorkers, replicas int, listen string) {
	if numWorkers < 1 || workerID < 0 || workerID >= numWorkers {
		fatal(fmt.Errorf("invalid worker id %d of %d", workerID, numWorkers))
	}
	var owned []partition.SubgraphID
	if replicas > 1 {
		table, err := cluster.AssignReplicas(part, numWorkers, replicas)
		if err != nil {
			fatal(err)
		}
		owned = table.OwnedBy(workerID)
	} else {
		for i := 0; i < part.NumSubgraphs(); i++ {
			if i%numWorkers == workerID {
				owned = append(owned, partition.SubgraphID(i))
			}
		}
	}
	worker := cluster.NewWorker(workerID, part, owned)
	// A standalone worker maintains its own copy of the weights; incoming
	// update batches must be applied locally.
	worker.EnableLocalApply()
	srv, err := cluster.Serve(listen, worker)
	if err != nil {
		fatal(err)
	}
	lg.Info("worker serving",
		"worker", workerID, "subgraphs", len(owned), "addr", srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	_ = srv.Close()
}

type masterConfig struct {
	dataset, scale string
	z              int
	xi             int
	connect        string
	queries        int
	k              int
	seed           int64
	batches        int
	closures       int
	incidents      int
	alpha          float64
	tau            float64
	conc           int
	maxIter        int
	stallWin       int
	pool           int
	replicas       int
	hedgeAfter     time.Duration
	pingEvery      time.Duration
	batch          rpcbatch.Options
	dataDir        string
	saveIndex      bool
	loadIndex      bool
	snapEvery      int
	httpAddr       string
	tlsCert        string
	tlsKey         string
	httpRate       float64
	httpBurst      int
	httpTmout      time.Duration
	pprofOn        bool
	slowQuery      time.Duration
	traceCap       int
	traceSamp      float64
}

// runMaster obtains the graph, partition and DTLP index — warm-started from
// a snapshot or built cold from the dataset flags — connects to the workers,
// and replays a mixed query/update workload through the concurrent
// snapshot-isolated serve layer, reporting timing and scheduling statistics.
func runMaster(cfg masterConfig) {
	var st *store.Store
	if cfg.dataDir != "" {
		var err error
		st, err = store.Open(cfg.dataDir, store.Options{})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
	}

	var (
		name  string
		g     *graph.Graph
		part  *partition.Partition
		index *dtlp.Index
	)
	if cfg.loadIndex {
		start := time.Now()
		builds := dtlp.SubgraphBuildCount()
		rec, err := st.Recover()
		if err != nil {
			fatal(err)
		}
		name = "snapshot:" + cfg.dataDir
		g, part, index = rec.Graph, rec.Partition, rec.Index
		lg.Info("master warm start",
			"dir", cfg.dataDir, "elapsed", time.Since(start).Round(time.Millisecond),
			"snapshot_epoch", rec.SnapshotEpoch, "replayed_batches", rec.ReplayedBatches,
			"epoch", rec.Epoch, "subgraph_builds", dtlp.SubgraphBuildCount()-builds)
		lg.Info("dataset ready", "dataset", name,
			"vertices", g.NumVertices(), "edges", g.NumEdges(), "subgraphs", part.NumSubgraphs())
	} else {
		ds, p := deriveDataset(cfg.dataset, cfg.scale, cfg.z)
		name, g, part = ds.Name, ds.Graph, p
		lg.Info("dataset ready", "dataset", name,
			"vertices", g.NumVertices(), "edges", g.NumEdges(), "subgraphs", part.NumSubgraphs())
		start := time.Now()
		var err error
		index, err = dtlp.Build(part, dtlp.Config{Xi: cfg.xi})
		if err != nil {
			fatal(err)
		}
		lg.Info("dtlp built", "elapsed", time.Since(start).Round(time.Millisecond),
			"skeleton_vertices", index.Skeleton().NumVertices(), "skeleton_edges", index.Skeleton().NumEdges())
	}
	// A cold-built index attached to a store always bootstraps a snapshot:
	// WAL records without a base snapshot are unrecoverable, and they would
	// poison the next cold start in the same directory.  -save-index
	// additionally forces a fresh (compacting) snapshot after a warm start.
	if st != nil && (cfg.saveIndex || !cfg.loadIndex) {
		epoch, err := st.SaveSnapshot(index)
		if err != nil {
			fatal(err)
		}
		lg.Info("snapshot written", "dir", cfg.dataDir, "epoch", epoch)
	}

	// Metrics shared between the batching transport and the HTTP gateway:
	// every flushed partial-KSP batch feeds the per-pair latency histogram,
	// one observation per pair it carried.
	reg := metrics.NewRegistry()
	pairLat := reg.Histogram("kspd_rpc_pair_seconds",
		"Partial-KSP round-trip latency per pair (each shipped pair observes its batch's latency).", nil)
	cfg.batch.Observe = func(pairs int, d time.Duration) {
		s := d.Seconds()
		for i := 0; i < pairs; i++ {
			pairLat.Observe(s)
		}
	}

	// Stage-duration histogram fed by the tracer: every finished span observes
	// its duration under its stage name.  The family is registered even when
	// tracing is disabled so dashboards see a stable metric set.
	stageLat := reg.HistogramVec("kspd_stage_seconds",
		"Durations of traced pipeline stages (request, admission, queue, execute, filter, refine, rpc_wait, rpc_batch, rpc, worker_exec, rebuild, wal, broadcast, ...).",
		nil, "stage")
	var tracer *trace.Tracer
	if cfg.traceCap > 0 {
		tracer = trace.New(trace.Options{
			Capacity:      cfg.traceCap,
			SampleRate:    cfg.traceSamp,
			SlowThreshold: cfg.slowQuery,
			OnSpanFinish: func(stage string, d time.Duration) {
				stageLat.With(stage).Observe(d.Seconds())
			},
		})
	}

	var provider core.PartialProvider
	var broadcast func([]graph.WeightUpdate) error
	var broadcastTopo func(graph.TopologyUpdate) error
	var member *cluster.Membership
	if cfg.connect != "" {
		var remotes []*cluster.RemoteWorker
		for _, addr := range strings.Split(cfg.connect, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			rw, err := cluster.DialPool(addr, cluster.ClientOptions{PoolSize: cfg.pool})
			if err != nil {
				fatal(err)
			}
			defer rw.Close()
			remotes = append(remotes, rw)
			lg.Info("connected to worker", "addr", addr)
		}
		if len(remotes) == 0 {
			fatal(fmt.Errorf("-connect %q contains no worker addresses", cfg.connect))
		}
		broadcast = func(batch []graph.WeightUpdate) error {
			for _, rw := range remotes {
				if _, err := rw.ApplyUpdates(batch); err != nil {
					return err
				}
			}
			return nil
		}
		if cfg.replicas > 1 {
			table, err := cluster.AssignReplicas(part, len(remotes), cfg.replicas)
			if err != nil {
				fatal(err)
			}
			rp, err := cluster.NewReplicatedRemoteProvider(remotes, part, table, cluster.ReplicatedOptions{
				Batch:      cfg.batch,
				HedgeAfter: cfg.hedgeAfter,
				PingEvery:  cfg.pingEvery,
			})
			if err != nil {
				fatal(err)
			}
			defer rp.Close()
			provider = rp
			member = rp.Membership()
			lg.Info("replication enabled", "factor", table.Factor(),
				"hedge_after", cfg.hedgeAfter, "ping_every", cfg.pingEvery)
			// The replica table routes partial-KSP batches by subgraph; it is
			// derived once from the pre-topology partition and failover-aware
			// extension is not wired up yet, so topology mutations are
			// rejected instead of silently leaving new subgraphs unrouted.
			broadcastTopo = func(graph.TopologyUpdate) error {
				return fmt.Errorf("kspd: topology updates over a replicated transport (-replicas > 1) are not supported; restart the fleet on the new graph instead")
			}
		} else {
			bp := cluster.NewBatchedRemoteProvider(remotes, cfg.batch)
			defer bp.Close()
			provider = bp
			nw := len(remotes)
			broadcastTopo = func(up graph.TopologyUpdate) error {
				req := cluster.TopologyUpdateRequest{Update: up, NumWorkers: nw, Factor: 1}
				for _, rw := range remotes {
					if _, err := rw.ApplyTopology(req); err != nil {
						return err
					}
				}
				return nil
			}
		}
	} else {
		lg.Info("no -connect given, running the refine step locally")
	}
	srvOpts := serve.Options{
		Workers:            cfg.conc,
		Broadcast:          broadcast,
		BroadcastTopology:  broadcastTopo,
		SnapshotEvery:      cfg.snapEvery,
		Engine:             core.Options{MaxIterations: cfg.maxIter, StallWindow: cfg.stallWin},
		Logger:             lg,
		SlowQueryThreshold: cfg.slowQuery,
	}
	if st != nil {
		srvOpts.Store = st
	}
	srv := serve.New(index, provider, srvOpts)
	defer srv.Close()

	if cfg.httpAddr != "" {
		runHTTP(cfg, srv, index, st, member, reg, tracer)
		return
	}

	sc := workload.GenerateMixed(g, cfg.queries, cfg.batches, cfg.k, cfg.alpha, cfg.tau, cfg.seed)
	if cfg.closures > 0 || cfg.incidents > 0 {
		sc = workload.InjectRoadEvents(g, sc, workload.RoadEventsConfig{
			Closures:  cfg.closures,
			Incidents: cfg.incidents,
			Seed:      cfg.seed + 7,
		})
		lg.Info("injected topology events", "batches", sc.NumTopologyBatches(),
			"closures", cfg.closures, "incidents", cfg.incidents)
	}
	report, err := srv.RunScenario(sc)
	if err != nil {
		fatal(err)
	}
	if errs := report.Errs(); len(errs) > 0 {
		fatal(errs[0])
	}
	totalIter := 0
	for i, qr := range report.Results {
		totalIter += qr.Result.Iterations
		if i < 3 {
			lg.Info("query sample", "i", i,
				"source", qr.Query.Source, "target", qr.Query.Target,
				"paths", len(qr.Result.Paths), "best", bestDist(qr.Result),
				"epoch", qr.Result.Epoch, "iterations", qr.Result.Iterations,
				"elapsed", qr.Result.Elapsed.Round(time.Microsecond))
		}
	}
	stats := srv.Stats()
	lg.Info("scenario complete",
		"queries", len(report.Results), "k", cfg.k,
		"update_batches", report.BatchesApplied, "topology_batches", report.TopologyApplied,
		"elapsed", report.Elapsed.Round(time.Millisecond),
		"avg_iterations", fmt.Sprintf("%.2f", float64(totalIter)/float64(max(len(report.Results), 1))))
	if stats.TopologyBatches > 0 {
		lg.Info("topology maintenance", "subgraphs_rebuilt", stats.SubgraphsRebuilt,
			"topology_batches", stats.TopologyBatches)
	}
	lg.Info("scheduling stats", "epoch", stats.Epoch,
		"cache_hits", stats.CacheHits, "coalesced", stats.Coalesced,
		"updates_applied", stats.UpdatesApplied, "snapshots", stats.Snapshots)
	if stats.NonConverged > 0 {
		lg.Warn("queries cut off with fewer than k proven paths (results may be truncated)",
			"count", stats.NonConverged)
	}
	if stats.BudgetTerminated > 0 {
		lg.Info("budget-terminated queries (near-exact answers)",
			"count", stats.BudgetTerminated, "max_bound_gap", fmt.Sprintf("%.3f", stats.MaxBoundGap))
	}
	if stats.RPCBatches > 0 {
		lg.Info("rpc batching stats", "batches", stats.RPCBatches,
			"pairs_coalesced", stats.PairsCoalesced, "dedup_hits", stats.DedupHits)
	}
	if cfg.replicas > 1 {
		lg.Info("failover stats", "failovers", stats.Failovers,
			"hedged_batches", stats.HedgedBatches, "hedge_wins", stats.HedgeWins,
			"hedge_drops", stats.HedgeDrops)
	}
}

// runHTTP turns the master into a long-running network service: the gateway
// serves the JSON API until SIGINT/SIGTERM, then the process drains in order
// — stop accepting HTTP, finish in-flight requests, drain the query pool,
// and write a final snapshot when persistence is configured — so a rolling
// restart loses neither queries nor durability.
func runHTTP(cfg masterConfig, srv *serve.Server, index *dtlp.Index, st *store.Store, member *cluster.Membership, reg *metrics.Registry, tracer *trace.Tracer) {
	gw := gateway.New(srv, gateway.Options{
		Rate:           cfg.httpRate,
		Burst:          cfg.httpBurst,
		DefaultTimeout: cfg.httpTmout,
		Membership:     member,
		Registry:       reg,
		Tracer:         tracer,
		EnablePprof:    cfg.pprofOn,
	})
	ln, err := net.Listen("tcp", cfg.httpAddr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: gw}
	scheme := "http"
	if cfg.tlsCert != "" {
		scheme = "https"
	}
	lg.Info("serving HTTP API", "url", fmt.Sprintf("%s://%s", scheme, ln.Addr()),
		"rate", cfg.httpRate, "default_timeout", cfg.httpTmout,
		"tracing", tracer != nil, "pprof", cfg.pprofOn)
	errCh := make(chan error, 1)
	go func() {
		var err error
		if cfg.tlsCert != "" {
			err = hs.ServeTLS(ln, cfg.tlsCert, cfg.tlsKey)
		} else {
			err = hs.Serve(ln)
		}
		errCh <- err
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		lg.Info("draining HTTP listener", "signal", s)
	case err := <-errCh:
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	if err := hs.Shutdown(ctx); err != nil {
		lg.Warn("HTTP drain incomplete", "err", err)
	}
	cancel()
	srv.Close() // drain in-flight queries
	stats := srv.Stats()
	lg.Info("drained", "epoch", stats.Epoch,
		"queries_served", stats.QueriesServed, "cache_hits", stats.CacheHits,
		"coalesced", stats.Coalesced, "truncated", stats.NonConverged,
		"budget_terminated", stats.BudgetTerminated, "canceled", stats.Canceled,
		"update_batches", stats.UpdateBatches)
	if st != nil {
		epoch, err := st.SaveSnapshot(index)
		if err != nil {
			fatal(fmt.Errorf("final snapshot: %w", err))
		}
		lg.Info("final snapshot written", "dir", cfg.dataDir, "epoch", epoch)
	}
}

func bestDist(res core.Result) float64 {
	if len(res.Paths) == 0 {
		return -1
	}
	return res.Paths[0].Dist
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kspd: %v\n", err)
	os.Exit(1)
}
