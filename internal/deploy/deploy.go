// Package deploy assembles the shipped KSP-DG deployment, the paper's Storm
// topology of SubgraphBolts and QueryBolts (Section 6.1).  Start stands up
// the master: the DTLP index, the worker clients and refine provider, the
// serve layer and, with an HTTP address, the gateway.  StartWorker stands up
// one standalone TCP worker.  Both return errors instead of exiting.
//
// Three decisions every process of a fleet must take alike live here: when a
// cold-built index gets its bootstrap snapshot (ColdIndex), the drain order
// (Master.Close), and the weight and topology broadcast loops
// (Master.broadcast, Master.broadcastTopology).  Which subgraphs a worker
// owns is cluster.Owners, the rule the master routes by.
package deploy

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"
	"unicode"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/gateway"
	"kspdg/internal/graph"
	"kspdg/internal/metrics"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/serve"
	"kspdg/internal/store"
	"kspdg/internal/trace"
	"kspdg/internal/workload"
)

// Config configures the master.  Each field mirrors the kspd flag in its
// comment (see docs/OPERATIONS.md); a nil Logger discards.
type Config struct {
	Dataset, Scale            string        // -dataset, -scale
	Z, Xi                     int           // -z, -xi
	Connect                   string        // -connect
	Concurrency, Pool         int           // -concurrency, -pool
	MaxIterations, Replicas   int           // -max-iterations, -replicas
	HedgeAfter, PingEvery     time.Duration // -hedge-after, -ping-every
	DataDir                   string        // -data-dir
	SaveIndex, LoadIndex      bool          // -save-index, -load-index
	SnapshotEvery             int           // -snapshot-every
	HTTPAddr, TLSCert, TLSKey string        // -http, -tls-cert, -tls-key
	HTTPRate                  float64       // -http-rate
	HTTPBurst                 int           // -http-burst
	HTTPTimeout, SlowQuery    time.Duration // -http-timeout, -slow-query
	Pprof                     bool          // -pprof
	TraceCapacity             int           // -trace-capacity
	TraceSample               float64       // -trace-sample
	Logger                    *slog.Logger
}

// WorkerConfig configures one standalone worker, field by kspd flag.
type WorkerConfig struct {
	Dataset, Scale       string // -dataset, -scale
	Z                    int    // -z
	WorkerID, NumWorkers int    // -worker-id, -num-workers
	Replicas             int    // -replicas
	Listen               string // -listen
	DataDir              string // -data-dir
	LoadIndex            bool   // -load-index
	Logger               *slog.Logger
}

// addrs splits a comma-separated address list, dropping empty entries.
func addrs(list string) []string {
	return strings.FieldsFunc(list, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
}

// Master is a started master; Close drains and releases it.
type Master struct {
	Server *serve.Server // drives queries and writes, e.g. a scenario replay
	Index  *dtlp.Index
	URL    string // the gateway's base URL; empty without HTTPAddr

	cfg      Config
	st       *store.Store
	remotes  []*cluster.RemoteWorker
	provider core.PartialProvider
	hs       *http.Server
	serveErr chan error
	served   chan struct{} // closed once the HTTP listener goroutine exits
}

// Start starts the master side of a deployment.  On error it closes
// everything it had opened.
func Start(cfg Config) (_ *Master, err error) {
	switch {
	case (cfg.TLSCert == "") != (cfg.TLSKey == ""):
		return nil, errors.New("-tls-cert and -tls-key must be set together")
	case cfg.TLSCert != "" && cfg.HTTPAddr == "":
		return nil, errors.New("-tls-cert/-tls-key require -http")
	case cfg.LoadIndex && cfg.DataDir == "":
		return nil, errors.New("-load-index requires -data-dir")
	case (cfg.SaveIndex || cfg.SnapshotEvery > 0) && cfg.DataDir == "":
		return nil, errors.New("-save-index and -snapshot-every require -data-dir")
	case cfg.Connect != "" && len(addrs(cfg.Connect)) == 0:
		return nil, fmt.Errorf("-connect %q contains no worker addresses", cfg.Connect)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	m := &Master{cfg: cfg}
	defer func() {
		if err != nil {
			m.Close()
		}
	}()
	if cfg.DataDir != "" {
		if m.st, err = store.Open(cfg.DataDir, store.Options{}); err != nil {
			return nil, err
		}
	}
	if m.Index, err = m.openIndex(); err != nil {
		return nil, err
	}

	// A shipped batch observes its latency once per pair it carried, a trace
	// span its duration under its stage (a family registered even untraced).
	reg := metrics.NewRegistry()
	pairLat := reg.Histogram("kspd_rpc_pair_seconds",
		"Partial-KSP round-trip latency per pair (each shipped pair observes its share's latency).", nil)
	batch := rpcbatch.Options{Observe: func(pairs int, d time.Duration) {
		for i := 0; i < pairs; i++ {
			pairLat.Observe(d.Seconds())
		}
	}}
	stageLat := reg.HistogramVec("kspd_stage_seconds",
		"Durations of traced pipeline stages (request, admission, queue, execute, filter, refine, rpc_wait: a refine share from submit to reply, rpc, worker_exec, rebuild, wal, broadcast, ...).",
		nil, "stage")
	var tracer *trace.Tracer
	if cfg.TraceCapacity > 0 {
		tracer = trace.New(trace.Options{
			Capacity:      cfg.TraceCapacity,
			SampleRate:    cfg.TraceSample,
			SlowThreshold: cfg.SlowQuery,
			OnSpanFinish:  func(stage string, d time.Duration) { stageLat.With(stage).Observe(d.Seconds()) },
		})
	}

	member, err := m.connect(batch)
	if err != nil {
		return nil, err
	}
	opts := serve.Options{
		Workers:            cfg.Concurrency,
		SnapshotEvery:      cfg.SnapshotEvery,
		Engine:             core.Options{MaxIterations: cfg.MaxIterations},
		Logger:             cfg.Logger,
		SlowQueryThreshold: cfg.SlowQuery,
	}
	if m.st != nil {
		opts.Store = m.st
	}
	if len(m.remotes) > 0 {
		opts.Broadcast, opts.BroadcastTopology = m.broadcast, m.broadcastTopology
	}
	m.Server = serve.New(m.Index, m.provider, opts)
	if cfg.HTTPAddr == "" {
		return m, nil
	}

	ln, err := net.Listen("tcp", cfg.HTTPAddr)
	if err != nil {
		return nil, err
	}
	m.hs = &http.Server{Handler: gateway.New(m.Server, gateway.Options{
		Rate:           cfg.HTTPRate,
		Burst:          cfg.HTTPBurst,
		DefaultTimeout: cfg.HTTPTimeout,
		Membership:     member,
		Registry:       reg,
		Tracer:         tracer,
		EnablePprof:    cfg.Pprof,
	})}
	scheme, serveHTTP := "http", func() error { return m.hs.Serve(ln) }
	if cfg.TLSCert != "" {
		scheme, serveHTTP = "https", func() error { return m.hs.ServeTLS(ln, cfg.TLSCert, cfg.TLSKey) }
	}
	m.URL = scheme + "://" + ln.Addr().String()
	cfg.Logger.Info("serving HTTP API", "url", m.URL, "rate", cfg.HTTPRate, "default_timeout", cfg.HTTPTimeout,
		"tracing", tracer != nil, "pprof", cfg.Pprof)
	m.serveErr, m.served = make(chan error, 1), make(chan struct{})
	go func() {
		defer close(m.served)
		m.serveErr <- serveHTTP()
	}()
	return m, nil
}

// openIndex builds the index cold or, with LoadIndex, recovers it from the
// data directory, where SaveIndex also writes a fresh, compacting snapshot.
func (m *Master) openIndex() (*dtlp.Index, error) {
	cfg := m.cfg
	if !cfg.LoadIndex {
		ds, err := dataset(cfg.Dataset, cfg.Scale)
		if err != nil {
			return nil, err
		}
		return ColdIndex(ds, cfg.Z, cfg.Xi, m.st, cfg.Logger)
	}
	start, builds := time.Now(), dtlp.SubgraphBuildCount()
	rec, err := m.st.Recover()
	if err != nil {
		return nil, err
	}
	cfg.Logger.Info("master warm start",
		"dir", cfg.DataDir, "elapsed", time.Since(start).Round(time.Millisecond),
		"snapshot_epoch", rec.SnapshotEpoch, "replayed_batches", rec.ReplayedBatches,
		"epoch", rec.Epoch, "subgraph_builds", dtlp.SubgraphBuildCount()-builds)
	cfg.Logger.Info("dataset ready", "dataset", "snapshot:"+cfg.DataDir,
		"vertices", rec.Graph.NumVertices(), "edges", rec.Graph.NumEdges(), "subgraphs", rec.Partition.NumSubgraphs())
	if cfg.SaveIndex {
		err = saveSnapshot(m.st, rec.Index, cfg.Logger)
	}
	return rec.Index, err
}

// ColdIndex partitions ds into subgraphs of z vertices (z ≤ 0: the dataset's
// default) and builds its DTLP index with xi bounding paths per boundary pair.
// With a store it always bootstraps a snapshot: WAL records without a base
// snapshot are unrecoverable and would poison the next cold start there.
func ColdIndex(ds *workload.Dataset, z, xi int, st *store.Store, lg *slog.Logger) (*dtlp.Index, error) {
	part, err := partitionDataset(ds, z)
	if err != nil {
		return nil, err
	}
	lg.Info("dataset ready", "dataset", ds.Name,
		"vertices", ds.Graph.NumVertices(), "edges", ds.Graph.NumEdges(), "subgraphs", part.NumSubgraphs())
	start := time.Now()
	index, err := dtlp.Build(part, dtlp.Config{Xi: xi})
	if err != nil {
		return nil, err
	}
	lg.Info("dtlp built", "elapsed", time.Since(start).Round(time.Millisecond),
		"skeleton_vertices", index.Skeleton().NumVertices(), "skeleton_edges", index.Skeleton().NumEdges())
	if st != nil {
		err = saveSnapshot(st, index, lg)
	}
	return index, err
}

func saveSnapshot(st *store.Store, index *dtlp.Index, lg *slog.Logger) error {
	epoch, err := st.SaveSnapshot(index)
	if err == nil {
		lg.Info("snapshot written", "dir", st.Dir(), "epoch", epoch)
	}
	return err
}

func dataset(name, scale string) (*workload.Dataset, error) {
	sc, err := workload.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	return workload.BuiltinDataset(name, sc)
}

func partitionDataset(ds *workload.Dataset, z int) (*partition.Partition, error) {
	if z <= 0 {
		z = ds.DefaultZ
	}
	return partition.PartitionGraph(ds.Graph, z)
}

// connect dials the workers and builds the refine provider over them at
// the replication factor Replicas.  Without workers the provider stays nil
// and serve refines locally.
func (m *Master) connect(batch rpcbatch.Options) (*cluster.Membership, error) {
	cfg := m.cfg
	for _, addr := range addrs(cfg.Connect) {
		rw, err := cluster.DialPool(addr, cluster.ClientOptions{PoolSize: cfg.Pool})
		if err != nil {
			return nil, err
		}
		m.remotes = append(m.remotes, rw)
		cfg.Logger.Info("connected to worker", "addr", addr)
	}
	if len(m.remotes) == 0 {
		cfg.Logger.Info("no -connect given, running the refine step locally")
		return nil, nil
	}
	p := cluster.NewReplicatedProvider(m.remotes, cfg.Replicas, cluster.ReplicatedOptions{
		Batch: batch, HedgeAfter: cfg.HedgeAfter, PingEvery: cfg.PingEvery,
	})
	m.provider = p
	cfg.Logger.Info("refine provider", "workers", len(m.remotes), "replicas", cfg.Replicas,
		"hedge_after", cfg.HedgeAfter, "ping_every", cfg.PingEvery)
	return p.Membership(), nil
}

// broadcast sends the whole weight batch to every worker in turn; each
// applies it to its own weight copy.  A failing worker does not stop the
// batch reaching the rest: the result joins every worker's error.
func (m *Master) broadcast(batch []graph.WeightUpdate) error {
	var errs []error
	for _, rw := range m.remotes {
		if _, err := rw.ApplyUpdates(batch); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// broadcastTopology sends a topology batch to every worker in turn, and like
// broadcast to the rest when one fails.  Each worker places the subgraphs
// the batch opens by cluster.Owners, the rule the provider routes by.
func (m *Master) broadcastTopology(up graph.TopologyUpdate) error {
	req := cluster.TopologyUpdateRequest{Update: up, NumWorkers: len(m.remotes), Factor: m.cfg.Replicas}
	var errs []error
	for _, rw := range m.remotes {
		if _, err := rw.ApplyTopology(req); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ServeErr delivers the error that stopped the HTTP listener early, if any.
func (m *Master) ServeErr() <-chan error { return m.serveErr }

// Close drains front to back: the HTTP listener and its in-flight requests,
// the query pool, then — for the HTTP service over a data directory — a
// final snapshot, so a rolling restart loses neither queries nor durability;
// last the provider, the worker clients and the store.  It returns the first
// error of the snapshot or the store.
func (m *Master) Close() error {
	var err error
	if m.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		if err := m.hs.Shutdown(ctx); err != nil {
			m.cfg.Logger.Warn("HTTP drain incomplete", "err", err)
		}
		cancel()
		<-m.served
		m.Server.Close()
		st := m.Server.Stats()
		m.cfg.Logger.Info("drained", "epoch", st.Epoch,
			"queries_served", st.QueriesServed, "cache_hits", st.CacheHits,
			"truncated", st.NonConverged, "canceled", st.Canceled,
			"update_batches", st.UpdateBatches)
		if m.st != nil {
			if epoch, serr := m.st.SaveSnapshot(m.Index); serr != nil {
				err = fmt.Errorf("final snapshot: %w", serr)
			} else {
				m.cfg.Logger.Info("final snapshot written", "dir", m.cfg.DataDir, "epoch", epoch)
			}
		}
	}
	if m.Server != nil {
		m.Server.Close()
	}
	if p, ok := m.provider.(interface{ Close() }); ok {
		p.Close()
	}
	for _, rw := range m.remotes {
		_ = rw.Close()
	}
	if m.st != nil {
		if cerr := m.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// StartWorker starts one standalone worker over the graph and partition
// recovered from the data directory (LoadIndex) or derived from the dataset.
// It serves its subgraphs over TCP and applies every broadcast batch to its
// own weight copy.
func StartWorker(cfg WorkerConfig) (*cluster.Server, error) {
	switch {
	case cfg.LoadIndex && cfg.DataDir == "":
		return nil, errors.New("-load-index requires -data-dir")
	case cfg.NumWorkers < 1 || cfg.WorkerID < 0 || cfg.WorkerID >= cfg.NumWorkers:
		return nil, fmt.Errorf("invalid worker id %d of %d", cfg.WorkerID, cfg.NumWorkers)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	var part *partition.Partition
	if cfg.LoadIndex {
		start := time.Now()
		g, p, epoch, err := store.RecoverTopology(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		part = p
		cfg.Logger.Info("worker warm start", "worker", cfg.WorkerID, "dir", cfg.DataDir,
			"elapsed", time.Since(start).Round(time.Millisecond),
			"vertices", g.NumVertices(), "edges", g.NumEdges(),
			"subgraphs", part.NumSubgraphs(), "epoch", epoch)
	} else {
		ds, err := dataset(cfg.Dataset, cfg.Scale)
		if err != nil {
			return nil, err
		}
		if part, err = partitionDataset(ds, cfg.Z); err != nil {
			return nil, err
		}
	}
	owned := cluster.OwnedBy(cfg.WorkerID, part.NumSubgraphs(), cfg.NumWorkers, cfg.Replicas)
	worker := cluster.NewWorker(cfg.WorkerID, part, owned)
	worker.EnableLocalApply()
	srv, err := cluster.Serve(cfg.Listen, worker)
	if err != nil {
		return nil, err
	}
	cfg.Logger.Info("worker serving", "worker", cfg.WorkerID, "subgraphs", len(owned), "addr", srv.Addr())
	return srv, nil
}
