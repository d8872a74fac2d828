// Chaos lane: the differential harness run against a replicated TCP
// deployment while workers are killed and rejoin mid-workload.  The paper
// deploys KSP-DG on Storm precisely because a road-network service must
// survive process failures (Section 6.1); this is the strongest black-box
// statement of that property the repo can make: with replication factor 2,
// killing a worker loses zero queries, and every returned path set is still
// bit-identical to exact Yen on the frozen weights of the epoch the query
// reports.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/partition"
	"kspdg/internal/serve"
	"kspdg/internal/shortest"
	"kspdg/internal/workload"
)

// ChaosParams describes one kill-worker chaos run.
type ChaosParams struct {
	// Workers is the number of TCP worker servers.  Zero means 3.
	Workers int
	// Factor is the replication factor.  Zero means 2.
	Factor int
	// Queries is the number of queries in the mixed workload.  Zero means 40.
	Queries int
	// UpdateBatches is the number of weight-update batches interleaved with
	// the queries.  Zero means 3.
	UpdateBatches int
	// Victim is the worker killed mid-workload.
	Victim int
	// Restart re-serves the victim on its old address later in the workload.
	Restart bool
	// OutageWindow is how long the victim stays down before a Restart:
	// queries submitted meanwhile run against the dead worker and must be
	// carried by the replicas.  Zero means 50ms when Restart is set.
	OutageWindow time.Duration
	// HedgeAfter enables hedged sends in the provider (0 = off).
	HedgeAfter time.Duration
	// K, Xi, N, Extra, Z and Directed mirror Params.
	K, Xi, N, Extra, Z int
	Directed           bool
	Seed               int64
}

// chaosDeployment owns the worker servers so kill/restart events can be
// mapped onto real processes-with-sockets.
type chaosDeployment struct {
	part    *partition.Partition
	index   *dtlp.Index
	workers int
	factor  int
	outage  time.Duration

	mu      sync.Mutex
	servers []*cluster.Server
	addrs   []string
	killed  []bool
}

func (d *chaosDeployment) apply(ev ChaosEvent) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := ev.Worker
	if w < 0 || w >= len(d.servers) {
		return fmt.Errorf("chaos: no worker %d", w)
	}
	switch ev.Action {
	case ChaosKillWorker:
		if d.killed[w] {
			return nil
		}
		d.killed[w] = true
		return d.servers[w].Close()
	case ChaosRestartWorker:
		if !d.killed[w] {
			return nil
		}
		// Keep the worker down for the outage window: queries already in
		// flight (and the ones submitted while we sleep) must be carried by
		// the replicas, which is the property the lane exists to prove.
		time.Sleep(d.outage)
		worker := cluster.NewWorker(w, d.part, cluster.OwnedBy(w, d.part.NumSubgraphs(), d.workers, d.factor))
		worker.SetViewResolver(d.index.ViewAt)
		// The old port may linger briefly after the close; retry the rebind.
		var srv *cluster.Server
		var err error
		for i := 0; i < 200; i++ {
			srv, err = cluster.Serve(d.addrs[w], worker)
			if err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("chaos: restarting worker %d on %s: %w", w, d.addrs[w], err)
		}
		d.servers[w] = srv
		d.killed[w] = false
		return nil
	default:
		return fmt.Errorf("chaos: unknown action %v", ev.Action)
	}
}

func (d *chaosDeployment) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for w, srv := range d.servers {
		if !d.killed[w] {
			srv.Close()
		}
	}
}

// CheckChaos builds a replicated TCP deployment, replays a mixed workload
// with a worker killed (and optionally restarted) in the middle of it, and
// audits every query against exact Yen on the frozen weights of the epoch
// the query reports.  Zero queries may fail and zero results may diverge:
// replication plus failover must make worker death invisible to callers.
func CheckChaos(tb testing.TB, cp ChaosParams) {
	tb.Helper()
	if cp.Workers == 0 {
		cp.Workers = 3
	}
	if cp.Factor == 0 {
		cp.Factor = 2
	}
	if cp.Queries == 0 {
		cp.Queries = 40
	}
	if cp.UpdateBatches == 0 {
		cp.UpdateBatches = 3
	}
	if cp.Restart && cp.OutageWindow == 0 {
		cp.OutageWindow = 50 * time.Millisecond
	}
	p := Params{Directed: cp.Directed, K: cp.K, Xi: cp.Xi, N: cp.N, Extra: cp.Extra, Z: cp.Z, Seed: cp.Seed}.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	g := p.buildGraph(rng)
	part, err := partition.PartitionGraph(g, p.Z)
	if err != nil {
		tb.Fatalf("partition: %v", err)
	}
	x, err := dtlp.Build(part, dtlp.Config{Xi: p.Xi})
	if err != nil {
		tb.Fatalf("dtlp build: %v", err)
	}
	dep := &chaosDeployment{
		part:    part,
		index:   x,
		workers: cp.Workers,
		factor:  cp.Factor,
		outage:  cp.OutageWindow,
		killed:  make([]bool, cp.Workers),
	}
	var remotes []*cluster.RemoteWorker
	for w := 0; w < cp.Workers; w++ {
		worker := cluster.NewWorker(w, part, cluster.OwnedBy(w, part.NumSubgraphs(), cp.Workers, cp.Factor))
		worker.SetViewResolver(x.ViewAt)
		srv, err := cluster.Serve("127.0.0.1:0", worker)
		if err != nil {
			tb.Fatalf("serve worker %d: %v", w, err)
		}
		dep.servers = append(dep.servers, srv)
		dep.addrs = append(dep.addrs, srv.Addr())
		rw, err := cluster.DialPool(srv.Addr(), cluster.ClientOptions{
			PoolSize:    2,
			MaxAttempts: 2,
			BackoffBase: time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
		})
		if err != nil {
			tb.Fatalf("dial worker %d: %v", w, err)
		}
		remotes = append(remotes, rw)
	}
	defer dep.close()
	defer func() {
		for _, rw := range remotes {
			rw.Close()
		}
	}()

	// The workers resolve epoch pins against the shared index, so replicas
	// answer bit-identically.
	provider := cluster.NewReplicatedProvider(remotes, cp.Factor, cluster.ReplicatedOptions{
		PingEvery:  5 * time.Millisecond,
		HedgeAfter: cp.HedgeAfter,
	})
	defer provider.Close()

	srv := serve.New(x, provider, serve.Options{Workers: 8})
	defer srv.Close()

	sc := workload.GenerateMixed(g, cp.Queries, cp.UpdateBatches, p.K, 0.3, 0.45, p.Seed+17)
	killAt := cp.Queries / 3
	restartAt := 0
	if cp.Restart {
		restartAt = 2 * cp.Queries / 3
	}
	report, err := replayChaos(srv, dep, p.K, InjectChaos(sc, cp.Victim, killAt, restartAt))
	if err != nil {
		tb.Fatalf("chaos scenario: %v", err)
	}
	wantChaos := 1
	if cp.Restart {
		wantChaos = 2
	}
	if report.chaosInjected != wantChaos {
		tb.Fatalf("injected %d chaos events, want %d", report.chaosInjected, wantChaos)
	}
	if report.batchesApplied != sc.NumUpdateBatches() {
		tb.Fatalf("applied %d/%d update batches", report.batchesApplied, sc.NumUpdateBatches())
	}

	// Zero lost queries: every query of the workload must have an answer.
	lost := 0
	for _, qr := range report.results {
		if qr.Err != nil {
			lost++
			tb.Errorf("query %d -> %d failed during chaos: %v", qr.Query.Source, qr.Query.Target, qr.Err)
		}
	}
	if lost > 0 {
		tb.Fatalf("%d/%d queries lost to the worker kill", lost, len(report.results))
	}

	// Bit-identical to Yen at the exact epoch each query reports.
	audited := 0
	for _, qr := range report.results {
		view := x.ViewAt(qr.Result.Epoch)
		if view == nil {
			tb.Fatalf("epoch %d evicted from the retention window", qr.Result.Epoch)
		}
		want := shortest.Yen(g.Snapshot(), qr.Query.Source, qr.Query.Target, p.K, &shortest.Options{Weight: view.GlobalWeight})
		gl, wl := lengths(qr.Result.Paths), lengths(want)
		switch {
		case sameLengths(gl, wl) && !qr.Result.Converged:
			tb.Logf("iteration-cap outlier: query(%d,%d,%d)@epoch %d exact without converging (%d iterations)",
				qr.Query.Source, qr.Query.Target, p.K, qr.Result.Epoch, qr.Result.Iterations)
		case !sameLengths(gl, wl):
			tb.Errorf("query(%d,%d,%d)@epoch %d: KSP-DG lengths %v != Yen-at-epoch lengths %v (diverged during chaos)",
				qr.Query.Source, qr.Query.Target, p.K, qr.Result.Epoch, gl, wl)
		}
		audited++
	}
	if audited == 0 {
		tb.Fatal("no outcomes audited")
	}

	if st := srv.Stats(); st.Failovers == 0 && st.HedgedBatches == 0 {
		// The kill may land after the query flood drained on very fast runs;
		// surface it rather than failing, but it usually means the scenario
		// shrank too much to exercise failover.
		tb.Logf("chaos run recorded no failovers or hedges (stats %+v); workload may have drained before the kill", st)
	}
}

// ChaosAction is a fault to inject into a running deployment.
type ChaosAction int

const (
	// ChaosKillWorker abruptly terminates one worker (its connections drop;
	// in-flight requests to it fail).
	ChaosKillWorker ChaosAction = iota
	// ChaosRestartWorker brings a previously killed worker back on its old
	// address with its assigned partition set.
	ChaosRestartWorker
)

func (a ChaosAction) String() string {
	switch a {
	case ChaosKillWorker:
		return "kill"
	case ChaosRestartWorker:
		return "restart"
	default:
		return fmt.Sprintf("chaos(%d)", int(a))
	}
}

// ChaosEvent is one fault injection of a chaos scenario, which
// chaosDeployment.apply maps onto its worker servers.
type ChaosEvent struct {
	Action ChaosAction
	// Worker is the target worker index.
	Worker int
}

// ChaosStep is one step of a ChaosScenario: an event of the mixed scenario
// the faults were injected into or, when Chaos is set, a fault to inject.
type ChaosStep struct {
	workload.MixedEvent
	Chaos *ChaosEvent
}

// ChaosScenario is the events of a mixed scenario with faults woven in.
type ChaosScenario []ChaosStep

// InjectChaos returns sc with a kill of the given worker inserted after
// killAfter query events and, when restartAfter > killAfter, a restart of
// the same worker inserted after restartAfter query events — the canonical
// kill-worker chaos shape: queries keep flowing while the worker is dead and
// after it rejoins.  Counts beyond the stream length clamp to the end.
func InjectChaos(sc workload.MixedScenario, worker, killAfter, restartAfter int) ChaosScenario {
	faults := []ChaosStep{{Chaos: &ChaosEvent{Action: ChaosKillWorker, Worker: worker}}}
	at := []int{killAfter} // faults[i] goes in once at[i] queries are in
	if restartAfter > killAfter {
		faults = append(faults, ChaosStep{Chaos: &ChaosEvent{Action: ChaosRestartWorker, Worker: worker}})
		at = append(at, restartAfter)
	}
	out := make(ChaosScenario, 0, len(sc.Events)+len(faults))
	queries := 0
	for _, ev := range sc.Events {
		out = append(out, ChaosStep{MixedEvent: ev})
		if ev.Query != nil {
			queries++
		}
		for len(at) > 0 && queries >= at[0] {
			out, faults, at = append(out, faults[0]), faults[1:], at[1:]
		}
	}
	return append(out, faults...)
}

// chaosOutcome pairs one query of a chaos scenario with its answer.
type chaosOutcome struct {
	Query  workload.Query
	Result core.Result
	Err    error
}

// chaosReport is what replayChaos did: one outcome per query, in event
// order, and the update batches and chaos events it executed.
type chaosReport struct {
	results        []chaosOutcome
	batchesApplied int
	chaosInjected  int
}

// replayChaos runs sc, with k paths per query, against srv the way clients
// and operators would hit a live deployment: each query runs on its own
// goroutine and may overlap any number of later events, while update batches
// and worker kills/restarts run inline in event order, so a worker dies while
// earlier queries are still in flight.  It returns once every query has
// answered.
func replayChaos(srv *serve.Server, dep *chaosDeployment, k int, sc ChaosScenario) (chaosReport, error) {
	ctx := context.Background()
	// Room for every step: no append moves a slot a running query writes.
	rep := chaosReport{results: make([]chaosOutcome, 0, len(sc))}
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, ev := range sc {
		switch {
		case ev.Query != nil:
			rep.results = append(rep.results, chaosOutcome{})
			q, out := *ev.Query, &rep.results[len(rep.results)-1]
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := srv.Query(ctx, serve.Request{Src: q.Source, Dst: q.Target, K: k})
				*out = chaosOutcome{Query: q, Result: res, Err: err}
			}()
		case len(ev.Updates) > 0:
			if _, err := srv.ApplyUpdates(ctx, ev.Updates); err != nil {
				return rep, err
			}
			rep.batchesApplied++
		case ev.Chaos != nil:
			if err := dep.apply(*ev.Chaos); err != nil {
				return rep, err
			}
			rep.chaosInjected++
		}
	}
	return rep, nil
}
