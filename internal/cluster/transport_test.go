package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/testutil"
)

// buildServedWorker builds one TCP worker server owning all subgraphs of the
// paper graph and returns it with its partition.
func buildServedWorker(t *testing.T) (*Server, *partition.Partition) {
	t.Helper()
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	var owned []partition.SubgraphID
	for i := 0; i < p.NumSubgraphs(); i++ {
		owned = append(owned, partition.SubgraphID(i))
	}
	srv, err := Serve("127.0.0.1:0", NewWorker(0, p, owned))
	if err != nil {
		t.Fatal(err)
	}
	return srv, p
}

// somePairs returns n boundary pair requests of the partition.
func somePairs(t *testing.T, p *partition.Partition, n int) []core.PairRequest {
	t.Helper()
	boundary := p.BoundaryVertices()
	if len(boundary) < 2 {
		t.Skip("need boundary vertices")
	}
	var pairs []core.PairRequest
	for i := 0; i < n; i++ {
		pairs = append(pairs, core.PairRequest{
			A: boundary[i%len(boundary)],
			B: boundary[(i+1)%len(boundary)],
		})
	}
	return pairs
}

// waitGoroutinesSettle waits until the goroutine count drops back to at most
// base plus a small slack, failing the test otherwise.
func waitGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d at baseline", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerCloseWithInflightRequests closes the server while many
// multiplexed requests are executing.  Close must return (no deadlock), the
// in-flight request goroutines must drain (no leaks under -race), and the
// client callers must all get an answer or an error instead of hanging.
func TestServerCloseWithInflightRequests(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, p := buildServedWorker(t)
	rw, err := DialPool(srv.Addr(), ClientOptions{PoolSize: 2, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	pairs := somePairs(t, p, 3)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				// Errors are expected once the server goes down; hanging or
				// panicking is not.
				_, _ = rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2})
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let requests get in flight
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	rw.Close()
	waitGoroutinesSettle(t, base)
}

// TestServerCloseRacesNewConnections closes the server while fresh
// connections are being dialed: every accepted connection must be closed and
// supervised regardless of which side of the closed-check it lands on.
func TestServerCloseRacesNewConnections(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		srv, _ := buildServedWorker(t)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rw, err := DialPool(srv.Addr(), ClientOptions{MaxAttempts: 1})
				if err != nil {
					return // listener already closed: fine
				}
				_, _ = rw.Stats()
				rw.Close()
			}()
		}
		srv.Close()
		wg.Wait()
	}
	waitGoroutinesSettle(t, base)
}

// TestRemoteWorkerReconnectsAfterRestart kills the server under an idle
// client, restarts it on the same address, and requires later requests to
// succeed through the capped-backoff redial instead of failing the query.
func TestRemoteWorkerReconnectsAfterRestart(t *testing.T) {
	srv, p := buildServedWorker(t)
	addr := srv.Addr()
	rw, err := DialPool(addr, ClientOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	pairs := somePairs(t, p, 1)
	if _, err := rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2}); err != nil {
		t.Fatalf("first request: %v", err)
	}

	srv.Close()
	// Restart on the same address (retry briefly: the kernel may need a
	// moment to release the port).
	var srv2 *Server
	for i := 0; i < 50; i++ {
		g := testutil.PaperGraph(t)
		p2, err := partition.PartitionGraph(g, 6)
		if err != nil {
			t.Fatal(err)
		}
		var owned []partition.SubgraphID
		for j := 0; j < p2.NumSubgraphs(); j++ {
			owned = append(owned, partition.SubgraphID(j))
		}
		srv2, err = Serve(addr, NewWorker(0, p2, owned))
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if srv2 == nil {
		t.Skip("could not rebind restart address")
	}
	defer srv2.Close()

	resp, err := rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2})
	if err != nil {
		t.Fatalf("request after restart should reconnect: %v", err)
	}
	if resp.NumPairs() != 1 {
		t.Fatalf("expected one result slot, got %d", resp.NumPairs())
	}
}

// TestRemoteWorkerKillServerMidBatch is the satellite's kill-the-server test:
// a stream of concurrent requests is in flight when the server dies and is
// restarted; requests during the outage may fail after the bounded retries,
// but none may hang, and requests after the restart must succeed again.
func TestRemoteWorkerKillServerMidBatch(t *testing.T) {
	srv, p := buildServedWorker(t)
	addr := srv.Addr()
	rw, err := DialPool(addr, ClientOptions{
		PoolSize:    2,
		MaxAttempts: 6,
		BackoffBase: time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	pairs := somePairs(t, p, 2)

	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 12; j++ {
				if _, err := rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2}); err != nil {
					errs[i] = err
				}
			}
		}(i)
	}

	time.Sleep(3 * time.Millisecond)
	srv.Close()
	var srv2 *Server
	for i := 0; i < 50; i++ {
		g := testutil.PaperGraph(t)
		p2, _ := partition.PartitionGraph(g, 6)
		var owned []partition.SubgraphID
		for j := 0; j < p2.NumSubgraphs(); j++ {
			owned = append(owned, partition.SubgraphID(j))
		}
		srv2, err = Serve(addr, NewWorker(0, p2, owned))
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait() // every caller must return: retries are bounded
	if srv2 == nil {
		t.Skip("could not rebind restart address")
	}
	defer srv2.Close()

	// After the restart the same client must serve requests again.
	if _, err := rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2}); err != nil {
		t.Fatalf("request after mid-batch restart: %v", err)
	}
}

// TestZeroPairRequestOverTCP sends the smallest malformed request — no pairs —
// to a worker whose executor is wider than one lane.  It must be answered
// with an empty response; the fan-out once divided by the pair count.
func TestZeroPairRequestOverTCP(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	testutil.SetGOMAXPROCS(t, 4)
	srv, err := Serve("127.0.0.1:0", NewWorker(0, p, []partition.SubgraphID{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rw, err := DialPool(srv.Addr(), ClientOptions{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	resp, err := rw.PartialKSP(PartialKSPRequest{K: 2})
	if err != nil {
		t.Fatalf("zero-pair request: %v", err)
	}
	if resp.NumPairs() != 0 {
		t.Fatalf("zero-pair request answered %d slots", resp.NumPairs())
	}
}

// TestPanicFailsOneRequestNotTheWorker makes the view resolver panic for one
// epoch: the request pinned to it gets an error reply, an unpinned request on
// the same connection is then answered normally, the panic is counted, and
// the server still shuts down cleanly.
func TestPanicFailsOneRequestNotTheWorker(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	var owned []partition.SubgraphID
	for i := 0; i < p.NumSubgraphs(); i++ {
		owned = append(owned, partition.SubgraphID(i))
	}
	const cursed = 7
	worker := NewWorker(0, p, owned)
	worker.SetViewResolver(func(epoch uint64) *dtlp.IndexView {
		if epoch == cursed {
			panic("resolver blew up")
		}
		return nil
	})
	srv, err := Serve("127.0.0.1:0", worker)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := DialPool(srv.Addr(), ClientOptions{PoolSize: 1, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	pairs := somePairs(t, p, 2)

	_, err = rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2, Epoch: cursed, HasEpoch: true})
	if err == nil || !strings.Contains(err.Error(), "cluster: worker panic: resolver blew up") {
		t.Fatalf("pinned request returned %v, want the worker-panic error", err)
	}
	resp, err := rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2})
	if err != nil {
		t.Fatalf("request after the panic on the same connection: %v", err)
	}
	if resp.NumPairs() != len(pairs) {
		t.Fatalf("request after the panic answered %d slots, want %d", resp.NumPairs(), len(pairs))
	}
	st, err := rw.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Panics)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung after a contained panic")
	}
}

// remoteOracleDeployment splits the paper graph's subgraphs over two TCP
// worker servers and returns the index plus connected clients.
func remoteOracleDeployment(t *testing.T, copts ClientOptions) (*dtlp.Index, []*RemoteWorker, func()) {
	t.Helper()
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	var owned [2][]partition.SubgraphID
	for i := 0; i < p.NumSubgraphs(); i++ {
		owned[i%2] = append(owned[i%2], partition.SubgraphID(i))
	}
	var servers []*Server
	var remotes []*RemoteWorker
	for i := 0; i < 2; i++ {
		srv, err := Serve("127.0.0.1:0", NewWorker(i, p, owned[i]))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		rw, err := DialPool(srv.Addr(), copts)
		if err != nil {
			t.Fatal(err)
		}
		remotes = append(remotes, rw)
	}
	cleanup := func() {
		for _, rw := range remotes {
			rw.Close()
		}
		for _, srv := range servers {
			srv.Close()
		}
	}
	return x, remotes, cleanup
}

// TestBatchedRemoteProviderMatchesOracle answers concurrent queries through
// the full batched pipeline (pool > 1, concurrent queries' batches on the
// wire at once) and checks every result against brute force.
func TestBatchedRemoteProviderMatchesOracle(t *testing.T) {
	g := testutil.PaperGraph(t)
	x, remotes, cleanup := remoteOracleDeployment(t, ClientOptions{PoolSize: 3})
	defer cleanup()
	bp := NewBatchedRemoteProvider(remotes, rpcbatch.Options{})
	defer bp.Close()
	engine := core.NewEngine(x, bp, core.Options{})

	cases := []struct {
		s, t graph.VertexID
		k    int
	}{
		{testutil.V1, testutil.V19, 3},
		{testutil.V4, testutil.V13, 2},
		{testutil.V2, testutil.V17, 4},
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(cases)*4)
	for rep := 0; rep < 4; rep++ {
		for _, cse := range cases {
			wg.Add(1)
			go func(s, tt graph.VertexID, k int) {
				defer wg.Done()
				res, err := engine.QueryViewCtx(context.Background(), nil, s, tt, k)
				if err != nil {
					errCh <- err
					return
				}
				want := testutil.BruteForceKSP(g.Snapshot(), s, tt, k)
				if len(res.Paths) != len(want) {
					errCh <- fmt.Errorf("query (%d,%d,%d): got %d paths, want %d", s, tt, k, len(res.Paths), len(want))
					return
				}
				for i := range want {
					if math.Abs(res.Paths[i].Dist-want[i].Dist) > 1e-9 {
						errCh <- fmt.Errorf("query (%d,%d,%d) path %d dist %g, want %g", s, tt, k, i, res.Paths[i].Dist, want[i].Dist)
						return
					}
				}
			}(cse.s, cse.t, cse.k)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := bp.BatchStats()
	if st.Batches == 0 {
		t.Errorf("expected batched transport to ship batches, stats %+v", st)
	}
}

// TestWorkerReportsEpochResolution covers the pin-honouring contract
// ServedEpoch reports: a worker answers ServedEpoch=true only when it
// resolved the requested epoch's frozen view — never for unknown/evicted
// epochs, unpinned requests, or workers without a resolver.
func TestWorkerReportsEpochResolution(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, err := partition.PartitionGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dtlp.Build(p, dtlp.Config{Xi: 1})
	if err != nil {
		t.Fatal(err)
	}
	var owned []partition.SubgraphID
	for i := 0; i < p.NumSubgraphs(); i++ {
		owned = append(owned, partition.SubgraphID(i))
	}
	pairs := somePairs(t, p, 1)
	cur := x.CurrentView().Epoch()

	resolving := NewWorker(0, p, owned)
	resolving.SetViewResolver(x.ViewAt)
	if resp := resolving.HandlePartialKSP(PartialKSPRequest{Pairs: pairs, K: 2, Epoch: cur, HasEpoch: true}); !resp.ServedEpoch {
		t.Errorf("known epoch %d should be served pinned", cur)
	}
	if resp := resolving.HandlePartialKSP(PartialKSPRequest{Pairs: pairs, K: 2, Epoch: cur + 1000, HasEpoch: true}); resp.ServedEpoch {
		t.Errorf("unknown epoch must fall back to live weights and say so")
	}
	if resp := resolving.HandlePartialKSP(PartialKSPRequest{Pairs: pairs, K: 2}); resp.ServedEpoch {
		t.Errorf("unpinned request cannot claim an epoch")
	}

	standalone := NewWorker(1, p, owned)
	if resp := standalone.HandlePartialKSP(PartialKSPRequest{Pairs: pairs, K: 2, Epoch: cur, HasEpoch: true}); resp.ServedEpoch {
		t.Errorf("resolver-less worker must never claim a pin")
	}
}

// TestRemoteWorkerPing covers the health-check probe end to end.
func TestRemoteWorkerPing(t *testing.T) {
	srv, _ := buildServedWorker(t)
	defer srv.Close()
	rw, err := DialPool(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if err := rw.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

// TestRemoteWorkerBackoffPersistsAcrossRoundTrips is the satellite's backoff
// fix: the failure streak (and therefore the retry delay) must survive from
// one round trip to the next and reset only after a successful round trip —
// not after a merely accepted write.
func TestRemoteWorkerBackoffPersistsAcrossRoundTrips(t *testing.T) {
	srv, p := buildServedWorker(t)
	addr := srv.Addr()
	rw, err := DialPool(addr, ClientOptions{
		MaxAttempts: 1, // no in-call retries: any growth must come from the streak
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	pairs := somePairs(t, p, 1)
	if _, err := rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2}); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if got := rw.failStreak.Load(); got != 0 {
		t.Fatalf("streak %d after success, want 0", got)
	}

	srv.Close()
	for i := 1; i <= 5; i++ {
		if _, err := rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2}); err == nil {
			t.Fatalf("request %d against a dead server should fail", i)
		}
	}
	if got := rw.failStreak.Load(); got < 5 {
		t.Fatalf("streak %d after 5 failed round trips, want >= 5 (state must persist across calls)", got)
	}
	if got, want := rw.backoffDelay(), 8*time.Millisecond; got != want {
		t.Fatalf("delay %v after a long streak, want the cap %v", got, want)
	}

	// Restart and require one successful round trip to clear the streak.
	var srv2 *Server
	for i := 0; i < 50; i++ {
		g := testutil.PaperGraph(t)
		p2, _ := partition.PartitionGraph(g, 6)
		var owned []partition.SubgraphID
		for j := 0; j < p2.NumSubgraphs(); j++ {
			owned = append(owned, partition.SubgraphID(j))
		}
		srv2, err = Serve(addr, NewWorker(0, p2, owned))
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if srv2 == nil {
		t.Skip("could not rebind restart address")
	}
	defer srv2.Close()
	if _, err := rw.PartialKSP(PartialKSPRequest{Pairs: pairs, K: 2}); err != nil {
		t.Fatalf("request after restart: %v", err)
	}
	if got := rw.failStreak.Load(); got != 0 {
		t.Fatalf("streak %d after a successful round trip, want 0", got)
	}
}
