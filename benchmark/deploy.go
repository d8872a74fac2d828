package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/gateway"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/serve"
	"kspdg/internal/store"
	"kspdg/internal/trace"
)

// deployment is the shipped multi-process shape in one process: a master
// index with a store WAL, standalone TCP workers that keep their own weight
// copies (as `kspd -mode worker` does), the batched remote provider, serve
// and the gateway on a loopback listener.  Every option the benchmark has no
// reason to set is left at its zero value, so that a later change of a
// default shows in the numbers.
type deployment struct {
	graph *graph.Graph
	part  *partition.Partition
	index *dtlp.Index
	store *store.Store
	dir   string

	servers  []*cluster.Server
	remotes  []*cluster.RemoteWorker
	provider *cluster.BatchedRemoteProvider
	srv      *serve.Server
	gw       *gateway.Gateway
	hs       *http.Server
	served   chan struct{}
	base     string
	tracer   *trace.Tracer

	setup setupTimes
	// heapMB is HeapAlloc once set-up is complete and two collections ran.
	heapMB float64
}

// setupTimes splits set-up by layer; total is what setup_s reports.
type setupTimes struct {
	total, partition, build, snapshot time.Duration
	snapshotBytes                     int64
}

// deploy builds the stack for one workload in a fresh directory under
// dataRoot.  A non-nil ledger installs the tracer, the decorators and the
// Observe hook of the traced run; nil leaves the deployment exactly as
// shipped.
func deploy(w workloadSpec, dataRoot string, led *ledger) (_ *deployment, err error) {
	d := &deployment{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	start := time.Now()

	ds, err := roadNetwork()
	if err != nil {
		return nil, err
	}
	d.graph = ds.Graph
	t := time.Now()
	if d.part, err = partition.PartitionGraph(d.graph, w.Z); err != nil {
		return nil, err
	}
	d.setup.partition = time.Since(t)
	t = time.Now()
	if d.index, err = dtlp.Build(d.part, dtlp.Config{Xi: dtlpXi}); err != nil {
		return nil, err
	}
	d.setup.build = time.Since(t)

	// Each worker derives its own graph and partition from the same seed,
	// like a worker process would, and owns every numWorkers-th subgraph.
	for id := 0; id < numWorkers; id++ {
		wds, err := roadNetwork()
		if err != nil {
			return nil, err
		}
		wpart, err := partition.PartitionGraph(wds.Graph, w.Z)
		if err != nil {
			return nil, err
		}
		var owned []partition.SubgraphID
		for i := id; i < wpart.NumSubgraphs(); i += numWorkers {
			owned = append(owned, partition.SubgraphID(i))
		}
		worker := cluster.NewWorker(id, wpart, owned)
		worker.EnableLocalApply()
		server, err := cluster.Serve("127.0.0.1:0", worker)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, server)
		remote, err := cluster.DialPool(server.Addr(), cluster.ClientOptions{PoolSize: 2})
		if err != nil {
			return nil, err
		}
		d.remotes = append(d.remotes, remote)
	}
	var batchOpts rpcbatch.Options
	if led != nil {
		batchOpts.Observe = led.observeRPC
	}
	d.provider = cluster.NewBatchedRemoteProvider(d.remotes, batchOpts)

	if d.dir, err = os.MkdirTemp(dataRoot, "data-"); err != nil {
		return nil, err
	}
	if d.store, err = store.Open(d.dir, store.Options{}); err != nil {
		return nil, err
	}
	t = time.Now()
	if _, err = d.store.SaveSnapshot(d.index); err != nil {
		return nil, err
	}
	d.setup.snapshot = time.Since(t)
	d.setup.snapshotBytes = dirBytes(d.dir, "snap-")

	broadcast := func(batch []graph.WeightUpdate) error {
		for _, remote := range d.remotes {
			if _, err := remote.ApplyUpdates(batch); err != nil {
				return err
			}
		}
		return nil
	}
	var provider core.PartialProvider = d.provider
	var persister serve.Persister = d.store
	var gwOpts = gateway.Options{Rate: -1}
	if led != nil {
		provider = &timedProvider{BatchedRemoteProvider: d.provider, led: led}
		persister = &timedPersister{Store: d.store, led: led}
		inner := broadcast
		broadcast = func(batch []graph.WeightUpdate) error {
			t := time.Now()
			err := inner(batch)
			led.add(&led.broadcast, time.Since(t))
			return err
		}
		d.tracer = trace.New(trace.Options{SampleRate: -1, OnSpanFinish: led.spanFinished})
		gwOpts.Tracer = d.tracer
	}
	d.srv = serve.New(d.index, provider, serve.Options{Broadcast: broadcast, Store: persister})
	d.gw = gateway.New(d.srv, gwOpts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = &http.Server{Handler: d.gw}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns ErrServerClosed once close() shuts it down
	}()
	d.base = "http://" + ln.Addr().String()
	d.setup.total = time.Since(start)

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return d, nil
}

// close stops every goroutine the deployment started, front to back, waits
// for them and removes the data directory.  It tolerates a half-built
// deployment.
func (d *deployment) close() {
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = d.hs.Shutdown(ctx)
		cancel()
		_ = d.hs.Close()
		<-d.served
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.provider != nil {
		d.provider.Close()
	}
	for _, remote := range d.remotes {
		_ = remote.Close()
	}
	for _, server := range d.servers {
		_ = server.Close()
	}
	if d.store != nil {
		_ = d.store.Close()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}

// dirBytes sums the sizes of the files in dir whose name starts with prefix.
func dirBytes(dir, prefix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
	}
	return n
}

// timedProvider counts and times the refine rounds of the traced run.  The
// engine reaches a batching provider only through PartialKSPAsyncCtx; every
// other method is the wrapped provider's own, so serve still finds its
// BatchStats.
type timedProvider struct {
	*cluster.BatchedRemoteProvider
	led *ledger
}

func (p *timedProvider) PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int) <-chan core.AsyncPartialReply {
	start := time.Now()
	in := p.BatchedRemoteProvider.PartialKSPAsyncCtx(ctx, iv, pairs, k)
	out := make(chan core.AsyncPartialReply, 1)
	go func() {
		reply := <-in
		p.led.round(time.Since(start), len(pairs))
		out <- reply
	}()
	return out
}

// timedPersister times the WAL appends of the traced run.
type timedPersister struct {
	*store.Store
	led *ledger
}

func (p *timedPersister) AppendBatch(epoch uint64, batch []graph.WeightUpdate) error {
	t := time.Now()
	err := p.Store.AppendBatch(epoch, batch)
	p.led.add(&p.led.walAppend, time.Since(t))
	return err
}
