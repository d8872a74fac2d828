package core

import (
	"context"
	"sync/atomic"
	"testing"

	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/testutil"
)

// countingProvider wraps a LocalProvider, counting the refine requests and
// checking each carries the query's epoch view, so tests can prove the engine
// went through the provider the way a cluster deployment needs it to.
type countingProvider struct {
	lp     *LocalProvider
	calls  atomic.Int64
	noView atomic.Int64
}

func (cp *countingProvider) PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []PairRequest, k int) <-chan AsyncPartialReply {
	cp.calls.Add(1)
	if iv == nil {
		cp.noView.Add(1)
	}
	return cp.lp.PartialKSPAsyncCtx(ctx, iv, pairs, k)
}

// TestCustomProviderMatchesDefault runs the same queries through the engine's
// own LocalProvider and through a caller-supplied provider: where the refine
// runs must change nothing about the answers, and every refine request must
// be pinned to the query's view.
func TestCustomProviderMatchesDefault(t *testing.T) {
	g := testutil.PaperGraph(t)
	p, x, defaultEngine := buildEngine(t, g, 6, 2)
	cp := &countingProvider{lp: NewLocalProvider(p, 4)}
	customEngine := NewEngine(x, cp, Options{})

	cases := []struct {
		s, t graph.VertexID
		k    int
	}{
		{testutil.V1, testutil.V19, 3},
		{testutil.V4, testutil.V13, 2},
		{testutil.V2, testutil.V17, 4},
		{testutil.V1, testutil.V1, 2},
	}
	for _, cse := range cases {
		want, err := defaultEngine.QueryViewCtx(context.Background(), nil, cse.s, cse.t, cse.k)
		if err != nil {
			t.Fatalf("default query(%d,%d,%d): %v", cse.s, cse.t, cse.k, err)
		}
		got, err := customEngine.QueryViewCtx(context.Background(), nil, cse.s, cse.t, cse.k)
		if err != nil {
			t.Fatalf("custom query(%d,%d,%d): %v", cse.s, cse.t, cse.k, err)
		}
		if len(got.Paths) != len(want.Paths) {
			t.Fatalf("query(%d,%d,%d): custom %d paths, default %d", cse.s, cse.t, cse.k, len(got.Paths), len(want.Paths))
		}
		for i := range want.Paths {
			if got.Paths[i].Dist != want.Paths[i].Dist {
				t.Errorf("query(%d,%d,%d) path %d: custom dist %g, default %g",
					cse.s, cse.t, cse.k, i, got.Paths[i].Dist, want.Paths[i].Dist)
			}
		}
		if got.Converged != want.Converged {
			t.Errorf("query(%d,%d,%d): custom converged=%v, default %v", cse.s, cse.t, cse.k, got.Converged, want.Converged)
		}
	}
	if cp.calls.Load() == 0 {
		t.Fatalf("engine never dispatched through the supplied provider")
	}
	if cp.noView.Load() != 0 {
		t.Fatalf("%d refine requests travelled without the query's view", cp.noView.Load())
	}
}
