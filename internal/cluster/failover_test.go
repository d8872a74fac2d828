package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
)

// fakeCaller is an in-process stand-in for a RemoteWorker: a real Worker
// behind an injectable transport (failures, latency),
// so replica failover and hedging are driven deterministically.
type fakeCaller struct {
	mu     sync.Mutex
	worker *Worker
	fail   bool
	delay  time.Duration
}

func (f *fakeCaller) PartialKSP(req PartialKSPRequest) (PartialKSPResponse, error) {
	f.mu.Lock()
	worker, fail, delay := f.worker, f.fail, f.delay
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return PartialKSPResponse{}, errors.New("fake: injected transport failure")
	}
	return worker.HandlePartialKSP(req), nil
}

func (f *fakeCaller) setFail(fail bool) {
	f.mu.Lock()
	f.fail = fail
	f.mu.Unlock()
}

func (f *fakeCaller) setDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// fakeDeployment builds the provider at the given factor over fake callers
// backed by real workers, placed by Owners, that resolve epoch pins against
// the shared index.
func fakeDeployment(t *testing.T, workers, factor int, opts ReplicatedOptions) (*dtlp.Index, []*fakeCaller, *BatchedRemoteProvider) {
	t.Helper()
	p := paperPartition(t)
	x, err := dtlp.Build(p, dtlp.Config{Xi: 2})
	if err != nil {
		t.Fatal(err)
	}
	fakes := make([]*fakeCaller, workers)
	calls := make([]func(PartialKSPRequest) (PartialKSPResponse, error), workers)
	for w := 0; w < workers; w++ {
		worker := NewWorker(w, p, OwnedBy(w, p.NumSubgraphs(), workers, factor))
		worker.SetViewResolver(x.ViewAt)
		fakes[w] = &fakeCaller{worker: worker}
		calls[w] = fakes[w].PartialKSP
	}
	return x, fakes, newProvider(calls, factor, opts, nil)
}

// samePaths requires two per-pair path maps to agree on distances.
func samePaths(t *testing.T, got, want map[core.PairRequest][]graph.Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("answered %d pairs, want %d", len(got), len(want))
	}
	for pr, wantPaths := range want {
		gotPaths, ok := got[pr]
		if !ok {
			t.Fatalf("pair %v missing from answer", pr)
		}
		if len(gotPaths) != len(wantPaths) {
			t.Fatalf("pair %v: %d paths, want %d", pr, len(gotPaths), len(wantPaths))
		}
		for i := range wantPaths {
			if math.Abs(gotPaths[i].Dist-wantPaths[i].Dist) > 1e-9 {
				t.Fatalf("pair %v path %d dist %g, want %g", pr, i, gotPaths[i].Dist, wantPaths[i].Dist)
			}
		}
	}
}

// referenceAnswers computes the expected per-pair answers on the full
// partition (with 2 workers at factor 2 every worker hosts every subgraph,
// so the provider's merged answer must equal the local computation).
func referenceAnswers(part *partition.Partition, pairs []core.PairRequest, k int) map[core.PairRequest][]graph.Path {
	want := make(map[core.PairRequest][]graph.Path, len(pairs))
	part, weights := core.RefineSource(part, nil)
	for _, pr := range pairs {
		want[pr] = core.RefinePair(part, pr, k, weights, nil)
	}
	return want
}

// refine issues one refine request pinned to iv and waits for its reply.
func refine(p core.PartialProvider, iv *dtlp.IndexView, pairs []core.PairRequest, k int) (map[core.PairRequest][]graph.Path, error) {
	reply := <-p.PartialKSPAsyncCtx(context.Background(), iv, pairs, k)
	return reply.Paths, reply.Err
}

func TestReplicatedProviderFailsOverWhenWorkerDies(t *testing.T) {
	x, fakes, rp := fakeDeployment(t, 2, 2, ReplicatedOptions{})
	defer rp.Close()
	part := x.Partition()
	iv := x.CurrentView()
	pairs := somePairs(t, part, 4)
	want := referenceAnswers(part, pairs, 3)

	got, err := refine(rp, iv, pairs, 3)
	if err != nil {
		t.Fatalf("healthy deployment: %v", err)
	}
	samePaths(t, got, want)

	// Kill worker 0: every pair must still be answered, via the replica.
	fakes[0].setFail(true)
	got, err = refine(rp, iv, pairs, 3)
	if err != nil {
		t.Fatalf("with worker 0 dead: %v", err)
	}
	samePaths(t, got, want)
	if st := rp.FailoverStats(); st.Failovers == 0 {
		t.Errorf("expected at least one failover, stats %+v", st)
	}
	if rp.Membership().State(0) == StateUp {
		t.Errorf("dead worker 0 still considered up")
	}

	// Later batches route around the suspected worker: answers keep flowing
	// without growing the failover count per call indefinitely.
	got, err = refine(rp, iv, pairs, 3)
	if err != nil {
		t.Fatalf("steady state with worker 0 dead: %v", err)
	}
	samePaths(t, got, want)

	// Worker 0 rejoins; one successful call restores it.
	fakes[0].setFail(false)
	if _, err := refine(rp, iv, pairs, 3); err != nil {
		t.Fatalf("after rejoin: %v", err)
	}
}

func TestReplicatedProviderAllReplicasDownFailsFast(t *testing.T) {
	x, fakes, rp := fakeDeployment(t, 2, 2, ReplicatedOptions{})
	defer rp.Close()
	part := x.Partition()
	iv := x.CurrentView()
	pairs := somePairs(t, part, 2)
	fakes[0].setFail(true)
	fakes[1].setFail(true)

	type result struct {
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, err := refine(rp, iv, pairs, 2)
		done <- result{err: err}
	}()
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatal("expected an error with every replica down")
		}
		if !strings.Contains(r.err.Error(), "replicas of subgraph") {
			t.Fatalf("error %q does not name the uncoverable subgraph", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query hung with every replica down instead of failing")
	}
}

func TestReplicatedProviderHedgedRequestBothAnswer(t *testing.T) {
	x, fakes, rp := fakeDeployment(t, 2, 2, ReplicatedOptions{HedgeAfter: 2 * time.Millisecond})
	part := x.Partition()
	iv := x.CurrentView()
	pairs := somePairs(t, part, 4)
	want := referenceAnswers(part, pairs, 3)

	// Both workers answer, worker 0 slowly: batches to worker 0 hedge onto
	// worker 1, the fast copy wins, and the slow copy's reply is dropped.
	fakes[0].setDelay(40 * time.Millisecond)
	got, err := refine(rp, iv, pairs, 3)
	if err != nil {
		t.Fatalf("hedged query: %v", err)
	}
	samePaths(t, got, want)

	// Accounting stays conserved after the race: a fresh request still gets
	// exactly one correct answer per pair.
	fakes[0].setDelay(0)
	got, err = refine(rp, iv, pairs, 3)
	if err != nil {
		t.Fatalf("query after hedge race: %v", err)
	}
	samePaths(t, got, want)

	// Close waits for the losers; both copies answered, so the drop count
	// must record the discarded duplicates.
	rp.Close()
	st := rp.FailoverStats()
	if st.HedgedBatches == 0 {
		t.Fatalf("expected hedged batches, stats %+v", st)
	}
	if st.HedgeWins == 0 {
		t.Errorf("expected the fast replica to win at least one race, stats %+v", st)
	}
	if st.HedgeDrops == 0 {
		t.Errorf("expected the slow duplicate replies to be counted dropped, stats %+v", st)
	}
	if st.Failovers != 0 {
		t.Errorf("hedging must not count as failover, stats %+v", st)
	}
	// Membership: slow is not dead — the late successes kept worker 0 up.
	if got := rp.Membership().State(0); got != StateUp {
		t.Errorf("slow worker 0 marked %v by hedging, want up", got)
	}
}

// TestReplicatedProviderConcurrentChurn hammers the provider from many
// goroutines while a worker flaps up and down: every request must either
// succeed with correct answers or fail cleanly, and the accounting must stay
// conserved (exactly one outcome per request).
func TestReplicatedProviderConcurrentChurn(t *testing.T) {
	x, fakes, rp := fakeDeployment(t, 3, 2, ReplicatedOptions{})
	defer rp.Close()
	part := x.Partition()
	iv := x.CurrentView()
	pairs := somePairs(t, part, 3)
	want := referenceAnswers(part, pairs, 2)

	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fakes[i%3].setFail(i%2 == 0)
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				got, err := refine(rp, iv, pairs, 2)
				if err != nil {
					continue // clean failure under churn is acceptable
				}
				for pr, wantPaths := range want {
					gotPaths := got[pr]
					if len(gotPaths) != len(wantPaths) {
						errCh <- fmt.Errorf("pair %v: %d paths, want %d", pr, len(gotPaths), len(wantPaths))
						return
					}
					for idx := range wantPaths {
						if math.Abs(gotPaths[idx].Dist-wantPaths[idx].Dist) > 1e-9 {
							errCh <- fmt.Errorf("pair %v path %d dist mismatch", pr, idx)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flapper.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// After the churn, with everyone healthy, service is fully restored.
	for _, f := range fakes {
		f.setFail(false)
	}
	got, err := refine(rp, iv, pairs, 2)
	if err != nil {
		t.Fatalf("after churn: %v", err)
	}
	samePaths(t, got, want)
}
