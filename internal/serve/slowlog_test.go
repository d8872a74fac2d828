package serve

import (
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"kspdg/internal/testutil"
	"kspdg/internal/trace"
)

// syncBuffer collects log output safely across the serve workers.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowQueryLogCarriesTraceAndStages: with the threshold at 1ns every
// query is an outlier, and the structured line must name the query, its
// trace id, and a per-stage breakdown an operator can paste into
// /debug/traces.
func TestSlowQueryLogCarriesTraceAndStages(t *testing.T) {
	var buf syncBuffer
	g := testutil.PaperGraph(t)
	_, s := buildServer(t, g, 6, 2, Options{
		Workers:            2,
		Logger:             slog.New(slog.NewTextHandler(&buf, nil)),
		SlowQueryThreshold: time.Nanosecond,
	})
	defer s.Close()

	tracer := trace.New(trace.Options{Capacity: 8, SampleRate: 1})
	tr, root := tracer.StartTrace("request")
	ctx := trace.NewContext(context.Background(), root)
	if _, err := s.Query(ctx, Request{Src: testutil.V1, Dst: testutil.V19, K: 3}); err != nil {
		t.Fatal(err)
	}
	root.Finish()
	tr.Finish()

	got := buf.String()
	if !strings.Contains(got, `msg="slow query"`) {
		t.Fatalf("no slow-query line emitted:\n%s", got)
	}
	for _, want := range []string{
		"level=WARN",
		"trace=" + trace.IDString(tr.ID()),
		"converged=true",
		"stage_queue=",
		"stage_execute=",
		"iterations=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("slow-query line missing %q:\n%s", want, got)
		}
	}
}

// TestSlowQueryLogSilentUnderThreshold: with no threshold configured, a
// healthy converged query must not log at all.
func TestSlowQueryLogSilentUnderThreshold(t *testing.T) {
	var buf syncBuffer
	g := testutil.PaperGraph(t)
	_, s := buildServer(t, g, 6, 2, Options{
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(&buf, nil)),
	})
	defer s.Close()
	if _, err := s.Query(context.Background(), Request{Src: testutil.V1, Dst: testutil.V19, K: 2}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); strings.Contains(got, "slow query") {
		t.Fatalf("healthy query logged as slow:\n%s", got)
	}
}
