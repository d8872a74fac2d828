package deploy

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"kspdg/internal/cluster"
	"kspdg/internal/graph"
	"kspdg/internal/trace"
)

// startWorkers starts n standalone workers on loopback ports over NY tiny at
// the given replication factor and returns their servers and the -connect
// list naming them.
func startWorkers(t *testing.T, n, replicas int) ([]*cluster.Server, string) {
	t.Helper()
	servers := make([]*cluster.Server, n)
	list := make([]string, n)
	for w := range servers {
		srv, err := StartWorker(WorkerConfig{
			Dataset: "NY", Scale: "tiny", WorkerID: w, NumWorkers: n, Replicas: replicas, Listen: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[w], list[w] = srv, srv.Addr()
	}
	return servers, strings.Join(list, ",")
}

// TestStartRejectsInvalidConfig pins every config rule Start and StartWorker
// enforce before they open anything.
func TestStartRejectsInvalidConfig(t *testing.T) {
	master := []struct {
		name string
		cfg  Config
		want string
	}{
		{"cert without key", Config{HTTPAddr: ":0", TLSCert: "c.pem"}, "must be set together"},
		{"key without cert", Config{HTTPAddr: ":0", TLSKey: "k.pem"}, "must be set together"},
		{"tls without http", Config{TLSCert: "c.pem", TLSKey: "k.pem"}, "require -http"},
		{"load-index without data-dir", Config{LoadIndex: true}, "-load-index requires -data-dir"},
		{"save-index without data-dir", Config{SaveIndex: true}, "require -data-dir"},
		{"snapshot-every without data-dir", Config{SnapshotEvery: 3}, "require -data-dir"},
		{"connect without addresses", Config{Connect: " , ,"}, "contains no worker addresses"},
	}
	for _, tc := range master {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Start(tc.cfg)
			if err == nil {
				m.Close()
				t.Fatal("Start accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	worker := []struct {
		name string
		cfg  WorkerConfig
		want string
	}{
		{"load-index without data-dir", WorkerConfig{LoadIndex: true, NumWorkers: 1}, "-load-index requires -data-dir"},
		{"negative worker id", WorkerConfig{WorkerID: -1, NumWorkers: 2}, "invalid worker id -1 of 2"},
		{"worker id past the fleet", WorkerConfig{WorkerID: 2, NumWorkers: 2}, "invalid worker id 2 of 2"},
		{"empty fleet", WorkerConfig{NumWorkers: 0}, "invalid worker id 0 of 0"},
	}
	for _, tc := range worker {
		t.Run("worker/"+tc.name, func(t *testing.T) {
			srv, err := StartWorker(tc.cfg)
			if err == nil {
				srv.Close()
				t.Fatal("StartWorker accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBroadcastSurvivesDeadWorker pins that one dead worker does not stop a
// weight batch reaching the others: with worker 0 of three closed, workers 1
// and 2 still apply the batch, and the write reports worker 0's failure.
func TestBroadcastSurvivesDeadWorker(t *testing.T) {
	servers, connect := startWorkers(t, 3, 2)
	m, err := Start(Config{Dataset: "NY", Scale: "tiny", Xi: 2, Connect: connect, Pool: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		for _, srv := range servers[1:] {
			srv.Close()
		}
	})
	servers[0].Close()

	cur := m.Index.Partition().Parent().Snapshot()
	batch := []graph.WeightUpdate{{Edge: 0, NewWeight: cur.Weight(0) * 2}, {Edge: 1, NewWeight: cur.Weight(1) + 1}}
	if _, err := m.Server.ApplyUpdates(context.Background(), batch); err == nil {
		t.Error("the write did not report the dead worker")
	}
	for w, rw := range m.remotes {
		if w == 0 {
			continue
		}
		st, err := rw.Stats()
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		if st.UpdatesReceived != len(batch) {
			t.Errorf("worker %d received %d updates, want the batch's %d", w, st.UpdatesReceived, len(batch))
		}
	}
}

// tracesResponse mirrors the gateway's /debug/traces JSON envelope.
type tracesResponse struct {
	Started  uint64            `json:"traces_started"`
	Retained uint64            `json:"traces_retained"`
	Traces   []trace.TraceView `json:"traces"`
}

// debugQueryResponse is the part of a /v1/ksp?debug=1 answer the trace test
// reads.
type debugQueryResponse struct {
	Trace *struct {
		ID     string             `json:"id"`
		Stages map[string]float64 `json:"stages_ms"`
	} `json:"trace"`
}

// TestEndToEndTraceWithFailover is the tracing acceptance path: a real TCP
// replicated deployment (2 workers, factor 2) fronted by serve + gateway,
// with worker 0 killed before the first query.  The query that routes a
// batch to the dead primary must fail over — and the single trace retrieved
// from /debug/traces must stitch the whole journey together: gateway
// admission, queue wait, engine iterations, shipped rpc batches, the
// failover leg, and the surviving worker's grafted execution spans.
func TestEndToEndTraceWithFailover(t *testing.T) {
	servers, connect := startWorkers(t, 2, 2)
	m, err := Start(Config{
		Dataset: "NY", Scale: "tiny", Xi: 2, Connect: connect, Pool: 2, Replicas: 2, Concurrency: 4,
		HTTPAddr: "127.0.0.1:0", TraceCapacity: 64, TraceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		for _, srv := range servers[1:] {
			srv.Close()
		}
	})

	// Chaos: kill worker 0's listener and connections.  Factor 2 means every
	// subgraph survives on worker 1, so queries must keep answering — via
	// the failover path whenever a batch routes to the dead primary.
	servers[0].Close()

	// Issue queries until one trips the failover path (the first one whose
	// pairs' common subgraphs have worker 0 as primary — membership only
	// learns about the death from data-path failures, so this is the first
	// batch actually sent to worker 0).
	var debugID string
	pairs := [][2]int{{3, 100}, {5, 90}, {1, 50}, {7, 120}, {11, 33}, {42, 77}}
	for _, pr := range pairs {
		body := fmt.Sprintf(`{"source":%d,"target":%d,"k":3}`, pr[0], pr[1])
		resp, err := http.Post(m.URL+"/v1/ksp?debug=1", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out debugQueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %v: status %d", pr, resp.StatusCode)
		}
		if out.Trace == nil || out.Trace.ID == "" {
			t.Fatalf("query %v: ?debug=1 response carries no trace block", pr)
		}
		if len(out.Trace.Stages) == 0 {
			t.Fatalf("query %v: debug trace has no stage breakdown", pr)
		}
		if m.Server.Stats().Failovers > 0 {
			debugID = out.Trace.ID
			break
		}
	}
	if debugID == "" {
		t.Fatalf("no query failed over with worker 0 dead (failovers: %d)", m.Server.Stats().Failovers)
	}

	// Retrieve the failed-over query's trace from /debug/traces and check it
	// covers every layer of the pipeline.
	resp, err := http.Get(m.URL + "/debug/traces?n=64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", resp.StatusCode)
	}
	var tr tracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Started == 0 || tr.Retained == 0 {
		t.Fatalf("tracer stats empty: started=%d retained=%d", tr.Started, tr.Retained)
	}
	var view *trace.TraceView
	for i := range tr.Traces {
		if tr.Traces[i].ID == debugID {
			view = &tr.Traces[i]
			break
		}
	}
	if view == nil {
		t.Fatalf("trace %s not retained (got %d traces)", debugID, len(tr.Traces))
	}

	flagged := false
	for _, f := range view.Flags {
		if f == "failedover" {
			flagged = true
		}
	}
	if !flagged {
		t.Errorf("failed-over trace missing the failedover flag: %v", view.Flags)
	}
	names := map[string]bool{}
	for _, s := range view.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{
		"request",     // gateway root
		"admission",   // rate limit + slot acquisition
		"queue",       // serve queue wait
		"execute",     // engine run
		"filter",      // DTLP filter step
		"refine",      // partial-KSP refine iterations
		"rpc_wait",    // one refine share, submit to reply
		"rpc_batch",   // the batch the share shipped as
		"rpc",         // one transport call
		"failover",    // the replica re-dispatch leg
		"worker_exec", // grafted from the surviving worker
	} {
		if !names[want] {
			t.Errorf("trace %s missing span %q (spans: %v)", debugID, want, spanNames(view))
		}
	}
	// Stage aggregation must cover the same pipeline.
	for _, want := range []string{"request", "queue", "execute", "refine"} {
		if _, ok := view.Stages[want]; !ok {
			t.Errorf("trace %s stages missing %q: %v", debugID, want, view.Stages)
		}
	}
}

func spanNames(v *trace.TraceView) []string {
	var out []string
	for _, s := range v.Spans {
		out = append(out, s.Name)
	}
	return out
}
