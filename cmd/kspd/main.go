// Command kspd runs the distributed KSP-DG deployment over TCP: worker
// processes host subgraphs and answer partial-KSP requests, and a master
// process holds the DTLP index, serves concurrent snapshot-isolated queries
// and fans the refine step out to the workers — the roles the paper assigns
// to SubgraphBolts and QueryBolts on Storm (Section 6.1).  internal/deploy
// assembles both roles; this command maps its flags onto deploy.Config and
// deploy.WorkerConfig.  The master serves the JSON API on -http until
// SIGINT/SIGTERM and then drains; clients send it queries, streams, pinned
// reads, weight batches and topology batches.
//
// Every process derives the dataset and partition from the shared flags, or
// warm-starts from a snapshot in -data-dir with -load-index (written by an
// earlier master or by kspgen).  docs/OPERATIONS.md documents every flag,
// including persistence and replication with failover.
//
// Start two workers and a master on one machine:
//
//	kspd -mode worker -dataset NY -scale tiny -worker-id 0 -num-workers 2 -listen 127.0.0.1:7001 &
//	kspd -mode worker -dataset NY -scale tiny -worker-id 1 -num-workers 2 -listen 127.0.0.1:7002 &
//	kspd -mode master -dataset NY -scale tiny -num-workers 2 -connect 127.0.0.1:7001,127.0.0.1:7002 -http 127.0.0.1:8080
//	curl -s -X POST 127.0.0.1:8080/v1/ksp -d '{"source":3,"target":100,"k":2}'
//
// Cold-start once with persistence, then warm-start from the snapshot:
//
//	kspd -mode master -dataset NY -scale tiny -data-dir /var/lib/kspd -http 127.0.0.1:8080
//	kspd -mode master -data-dir /var/lib/kspd -load-index -http 127.0.0.1:8080
//
// Serve over HTTPS with per-key admission:
//
//	kspd -mode master -dataset NY -scale tiny -http 127.0.0.1:8443 -tls-cert cert.pem -tls-key key.pem -http-rate 200
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kspdg/internal/deploy"
)

// lg is the process-wide key=value logger; main replaces it once -log-level
// is parsed.
var lg = slog.New(slog.NewTextHandler(os.Stdout, nil))

func main() {
	var cfg deploy.Config
	var wc deploy.WorkerConfig
	mode := flag.String("mode", "master", "role: worker or master")
	flag.StringVar(&cfg.Dataset, "dataset", "NY", "built-in dataset (NY, COL, FLA, CUSA)")
	flag.StringVar(&cfg.Scale, "scale", "tiny", "dataset scale: tiny, small, medium")
	flag.IntVar(&cfg.Z, "z", 0, "subgraph size (0 = dataset default)")
	flag.IntVar(&cfg.Xi, "xi", 3, "bounding paths per boundary pair")
	flag.IntVar(&wc.WorkerID, "worker-id", 0, "this worker's id (worker mode)")
	flag.IntVar(&wc.NumWorkers, "num-workers", 1, "total number of workers in the deployment")
	flag.StringVar(&wc.Listen, "listen", "127.0.0.1:7001", "listen address (worker mode)")
	flag.StringVar(&cfg.Connect, "connect", "", "comma-separated worker addresses (master mode)")
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
	flag.StringVar(&cfg.HTTPAddr, "http", "", "serve the HTTP API on this address (required in master mode); SIGINT/SIGTERM drains and exits")
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
		if cfg.HTTPAddr == "" {
			fatal(errors.New("master mode needs -http: the master serves its clients over the HTTP API"))
		}
		m, err := deploy.Start(cfg)
		if err != nil {
			fatal(err)
		}
		select {
		case s := <-signals():
			lg.Info("draining HTTP listener", "signal", s)
		case err := <-m.ServeErr():
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kspd: %v\n", err)
	os.Exit(1)
}
