// Command kspd runs the distributed KSP-DG deployment over TCP: worker
// processes host subgraphs and answer partial-KSP requests, and a master
// process holds the DTLP index, serves concurrent snapshot-isolated queries
// and fans the refine step out to the workers — the roles the paper assigns
// to SubgraphBolts and QueryBolts on Storm (Section 6.1).  internal/deploy
// assembles both roles; this command maps its flags onto deploy.Config and
// deploy.WorkerConfig, then replays a mixed query/update scenario or, with
// -http, serves the JSON API until SIGINT/SIGTERM and drains.
//
// Every process derives the dataset and partition from the shared flags, or
// warm-starts from a snapshot in -data-dir with -load-index (written by an
// earlier master or by kspgen).  docs/OPERATIONS.md documents every flag,
// including persistence, replication with failover, and road events.
//
// Start two workers and a master on one machine:
//
//	kspd -mode worker -dataset NY -scale tiny -worker-id 0 -num-workers 2 -listen 127.0.0.1:7001 &
//	kspd -mode worker -dataset NY -scale tiny -worker-id 1 -num-workers 2 -listen 127.0.0.1:7002 &
//	kspd -mode master -dataset NY -scale tiny -connect 127.0.0.1:7001,127.0.0.1:7002 -queries 50 -k 3 -update-batches 3
//
// Cold-start once with persistence, then warm-start from the snapshot:
//
//	kspd -mode master -dataset NY -scale tiny -data-dir /var/lib/kspd -queries 10
//	kspd -mode master -data-dir /var/lib/kspd -load-index -queries 50 -update-batches 3
//
// Serve the HTTP API (with -tls-cert and -tls-key over HTTPS):
//
//	kspd -mode master -dataset NY -scale tiny -http 127.0.0.1:8080 -http-rate 200
//	curl -s -X POST 127.0.0.1:8080/v1/ksp -d '{"source":3,"target":100,"k":2}'
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kspdg/internal/deploy"
	"kspdg/internal/workload"
)

// lg is the process-wide key=value logger; main replaces it once -log-level
// is parsed.
var lg = slog.New(slog.NewTextHandler(os.Stdout, nil))

// scenario holds the flags of the master's scenario replay.
type scenario struct {
	queries, k, batches, closures, incidents int
	seed                                     int64
	alpha, tau                               float64
}

func main() {
	var cfg deploy.Config
	var wc deploy.WorkerConfig
	var sc scenario
	mode := flag.String("mode", "master", "role: worker or master")
	flag.StringVar(&cfg.Dataset, "dataset", "NY", "built-in dataset (NY, COL, FLA, CUSA)")
	flag.StringVar(&cfg.Scale, "scale", "tiny", "dataset scale: tiny, small, medium")
	flag.IntVar(&cfg.Z, "z", 0, "subgraph size (0 = dataset default)")
	flag.IntVar(&cfg.Xi, "xi", 3, "bounding paths per boundary pair")
	flag.IntVar(&wc.WorkerID, "worker-id", 0, "this worker's id (worker mode)")
	flag.IntVar(&wc.NumWorkers, "num-workers", 1, "total number of workers in the deployment")
	flag.StringVar(&wc.Listen, "listen", "127.0.0.1:7001", "listen address (worker mode)")
	flag.StringVar(&cfg.Connect, "connect", "", "comma-separated worker addresses (master mode)")
	flag.IntVar(&sc.queries, "queries", 20, "number of random queries to run (master mode)")
	flag.IntVar(&sc.k, "k", 2, "k shortest paths per query (master mode)")
	flag.Int64Var(&sc.seed, "seed", 42, "workload seed")
	flag.IntVar(&sc.batches, "update-batches", 2, "weight-update batches interleaved with the queries (master mode)")
	flag.IntVar(&sc.closures, "closures", 0, "road closure/reopen pairs woven into the scenario: an edge is deleted and later reinserted between the same endpoints (master mode)")
	flag.IntVar(&sc.incidents, "incidents", 0, "road incidents woven into the scenario: an edge is deleted and traffic spikes on the streets around it (master mode)")
	flag.Float64Var(&sc.alpha, "alpha", 0.2, "fraction of edges perturbed per update batch")
	flag.Float64Var(&sc.tau, "tau", 0.3, "relative weight variation per update batch")
	flag.IntVar(&cfg.Concurrency, "concurrency", 0, "queries executing at once (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.MaxIterations, "max-iterations", 0, "hard cap on reference paths examined per query; a capped query answers with converged=false (0 = default 10000; master mode)")
	flag.IntVar(&cfg.Pool, "pool", 2, "TCP connections per worker (master mode)")
	flag.IntVar(&cfg.Replicas, "replicas", 1, "workers hosting each subgraph, placed on workers (subgraph + rank) mod num-workers; >1 lets queries fail over to a subgraph's other hosts (must match between master and workers)")
	flag.DurationVar(&cfg.HedgeAfter, "hedge-after", 0, "route a partial-KSP share again to its subgraphs' other hosts when its worker is silent this long (master mode, needs -replicas > 1; 0 disables)")
	flag.DurationVar(&cfg.PingEvery, "ping-every", 500*time.Millisecond, "worker health-check probe interval (master mode with workers, any -replicas; 0 leaves detection to the data path)")
	flag.StringVar(&cfg.DataDir, "data-dir", "", "persistence directory for index snapshots and the update WAL")
	flag.BoolVar(&cfg.SaveIndex, "save-index", false, "force a fresh snapshot in -data-dir after a warm start (cold starts with -data-dir always snapshot; master mode)")
	flag.BoolVar(&cfg.LoadIndex, "load-index", false, "warm-start from the newest snapshot in -data-dir instead of deriving the dataset from flags")
	flag.IntVar(&cfg.SnapshotEvery, "snapshot-every", 0, "rewrite the snapshot every N applied update batches (master mode, needs -data-dir)")
	flag.StringVar(&cfg.HTTPAddr, "http", "", "serve the HTTP API on this address instead of replaying a scenario (master mode); SIGINT/SIGTERM drains and exits")
	flag.StringVar(&cfg.TLSCert, "tls-cert", "", "TLS certificate file for the -http listener (with -tls-key)")
	flag.StringVar(&cfg.TLSKey, "tls-key", "", "TLS private key file for the -http listener (with -tls-cert)")
	flag.Float64Var(&cfg.HTTPRate, "http-rate", 100, "per-API-key admission rate in requests/second on the HTTP API (negative disables)")
	flag.IntVar(&cfg.HTTPBurst, "http-burst", 0, "per-API-key token-bucket burst (0 = the rate)")
	flag.DurationVar(&cfg.HTTPTimeout, "http-timeout", 30*time.Second, "default per-request deadline applied when clients send no Request-Timeout-Ms header (0 = none)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.BoolVar(&cfg.Pprof, "pprof", false, "mount Go's net/http/pprof profiling handlers under /debug/pprof/ on the -http listener (master mode)")
	flag.DurationVar(&cfg.SlowQuery, "slow-query", 0, "log every query at least this slow with its trace id and per-stage breakdown; 0 logs only non-converged queries (master mode)")
	flag.IntVar(&cfg.TraceCapacity, "trace-capacity", 256, "retained query traces served on GET /debug/traces; 0 disables tracing (master mode)")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", 0.05, "probability a normal (fast, converged) query trace is retained; slow/non-converged/failed-over/canceled traces are always kept, negative keeps outliers only (master mode)")
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(err)
	}
	lg = slog.New(slog.NewTextHandler(os.Stdout, &slog.HandlerOptions{Level: lvl}))
	// Library code without a logger of its own (contained panics, dropped
	// connections) logs on the default logger.
	slog.SetDefault(lg)
	cfg.Logger, wc.Logger = lg, lg
	wc.Dataset, wc.Scale, wc.Z, wc.Replicas = cfg.Dataset, cfg.Scale, cfg.Z, cfg.Replicas
	wc.DataDir, wc.LoadIndex = cfg.DataDir, cfg.LoadIndex

	switch *mode {
	case "worker":
		srv, err := deploy.StartWorker(wc)
		if err != nil {
			fatal(err)
		}
		<-signals()
		_ = srv.Close()
	case "master":
		m, err := deploy.Start(cfg)
		if err != nil {
			fatal(err)
		}
		if cfg.HTTPAddr != "" {
			select {
			case s := <-signals():
				lg.Info("draining HTTP listener", "signal", s)
			case err := <-m.ServeErr():
				fatal(err)
			}
		} else if err := runScenario(m, sc, cfg.Replicas); err != nil {
			m.Close()
			fatal(err)
		}
		if err := m.Close(); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q (want worker or master)", *mode))
	}
}

// signals delivers the first SIGINT or SIGTERM.
func signals() <-chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	return sig
}

// runScenario replays a mixed query/update workload through the master's
// concurrent snapshot-isolated serve layer and reports timing and
// scheduling statistics.
func runScenario(m *deploy.Master, cfg scenario, replicas int) error {
	g := m.Index.Partition().Parent()
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
	report, err := m.Server.RunScenario(sc)
	if err != nil {
		return err
	}
	if errs := report.Errs(); len(errs) > 0 {
		return errs[0]
	}
	totalIter := 0
	for i, qr := range report.Results {
		totalIter += qr.Result.Iterations
		if i < 3 {
			best := -1.0
			if len(qr.Result.Paths) > 0 {
				best = qr.Result.Paths[0].Dist
			}
			lg.Info("query sample", "i", i,
				"source", qr.Query.Source, "target", qr.Query.Target,
				"paths", len(qr.Result.Paths), "best", best,
				"epoch", qr.Result.Epoch, "iterations", qr.Result.Iterations,
				"elapsed", qr.Result.Elapsed.Round(time.Microsecond))
		}
	}
	stats := m.Server.Stats()
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
		"cache_hits", stats.CacheHits,
		"updates_applied", stats.UpdatesApplied, "snapshots", stats.Snapshots)
	if stats.NonConverged > 0 {
		lg.Warn("queries cut off by a safety valve (results may not be the k shortest)",
			"count", stats.NonConverged)
	}
	if stats.RPCBatches > 0 {
		lg.Info("rpc batching stats", "batches", stats.RPCBatches)
	}
	if replicas > 1 {
		lg.Info("failover stats", "failovers", stats.Failovers,
			"hedged_batches", stats.HedgedBatches, "hedge_wins", stats.HedgeWins,
			"hedge_drops", stats.HedgeDrops)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kspd: %v\n", err)
	os.Exit(1)
}
