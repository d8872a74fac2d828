package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/serve"
	"kspdg/internal/testutil"
	"kspdg/internal/workload"
)

// harness is one in-process cluster deployment behind a live HTTP server.
type harness struct {
	g     *graph.Graph
	index *dtlp.Index
	cl    *cluster.Cluster
	srv   *serve.Server
	gw    *Gateway
	ts    *httptest.Server
}

// newHarness boots NY-tiny on a two-worker in-process cluster, fronted by a
// serve.Server and a Gateway on a real listener.
func newHarness(tb testing.TB, gwOpts Options) *harness {
	tb.Helper()
	ds, err := workload.BuiltinDataset("NY", workload.ScaleTiny)
	if err != nil {
		tb.Fatal(err)
	}
	part, err := partition.PartitionGraph(ds.Graph, ds.DefaultZ)
	if err != nil {
		tb.Fatal(err)
	}
	index, err := dtlp.Build(part, dtlp.Config{Xi: 2})
	if err != nil {
		tb.Fatal(err)
	}
	cl, err := cluster.New(index, 2)
	if err != nil {
		tb.Fatal(err)
	}
	srv := serve.New(index, cl, serve.Options{Workers: 4})
	gw := New(srv, gwOpts)
	ts := httptest.NewServer(gw)
	h := &harness{g: ds.Graph, index: index, cl: cl, srv: srv, gw: gw, ts: ts}
	tb.Cleanup(func() {
		ts.Close()
		srv.Close()
		cl.Close()
	})
	return h
}

// engine returns a fresh comparison engine over the same index and provider
// as the server — the in-process ground truth HTTP responses must match
// bit-identically.
func (h *harness) engine() *core.Engine {
	return core.NewEngine(h.index, h.cl, core.Options{})
}

func (h *harness) postQuery(tb testing.TB, body string, hdrs map[string]string) (*http.Response, []byte) {
	tb.Helper()
	req, err := http.NewRequest("POST", h.ts.URL+"/v1/ksp", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp, data
}

// requirePathsEqual asserts the JSON paths are bit-identical to the engine's.
func requirePathsEqual(tb testing.TB, got []pathJSON, want []graph.Path) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("got %d paths, engine computed %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Distance != want[i].Dist {
			tb.Fatalf("path %d distance %v != engine %v", i, got[i].Distance, want[i].Dist)
		}
		if len(got[i].Vertices) != len(want[i].Vertices) {
			tb.Fatalf("path %d has %d vertices, engine %d", i, len(got[i].Vertices), len(want[i].Vertices))
		}
		for j := range want[i].Vertices {
			if got[i].Vertices[j] != want[i].Vertices[j] {
				tb.Fatalf("path %d vertex %d: %d != engine %d", i, j, got[i].Vertices[j], want[i].Vertices[j])
			}
		}
	}
}

func TestQueryEndToEnd(t *testing.T) {
	h := newHarness(t, Options{Rate: -1})
	resp, data := h.postQuery(t, `{"source":3,"target":100,"k":3}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	view := h.index.ViewAt(qr.Epoch)
	if view == nil {
		t.Fatalf("epoch %d not retained", qr.Epoch)
	}
	want, err := h.engine().QueryViewCtx(context.Background(), view, 3, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	requirePathsEqual(t, qr.Paths, want.Paths)
	if qr.Converged != want.Converged {
		t.Errorf("converged %v != engine %v", qr.Converged, want.Converged)
	}
}

func TestEpochPinnedReads(t *testing.T) {
	h := newHarness(t, Options{Rate: -1})

	// Record the first epoch's answer, then move the weights twice.
	resp, data := h.postQuery(t, `{"source":5,"target":90,"k":2}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var before queryResponse
	if err := json.Unmarshal(data, &before); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		batch := workload.NewTrafficModel(0.4, 0.5, int64(77+i)).Derive(
			h.g.NumEdges(), h.g.Directed(), h.g.Snapshot().Weight)
		var ur updatesRequest
		for _, u := range batch {
			ur.Updates = append(ur.Updates, updateJSON{Edge: int64(u.Edge), Weight: u.NewWeight})
		}
		body, _ := json.Marshal(ur)
		req, err := http.NewRequest("POST", h.ts.URL+"/v1/updates", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var urr updatesResponse
		if err := json.NewDecoder(resp.Body).Decode(&urr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("updates status %d", resp.StatusCode)
		}
		if urr.Applied != len(batch) {
			t.Fatalf("applied %d of %d updates", urr.Applied, len(batch))
		}
	}
	if cur := h.srv.Stats().Epoch; cur != before.Epoch+2 {
		t.Fatalf("epoch after two updates %d, want %d", cur, before.Epoch+2)
	}

	// A pin to the old epoch must reproduce the old answer bit-identically.
	resp, data = h.postQuery(t, fmt.Sprintf(`{"source":5,"target":90,"k":2,"epoch":%d}`, before.Epoch), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned status %d: %s", resp.StatusCode, data)
	}
	var pinned queryResponse
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	if pinned.Epoch != before.Epoch {
		t.Fatalf("pinned response reports epoch %d, want %d", pinned.Epoch, before.Epoch)
	}
	view := h.index.ViewAt(before.Epoch)
	want, err := h.engine().QueryViewCtx(context.Background(), view, 5, 90, 2)
	if err != nil {
		t.Fatal(err)
	}
	requirePathsEqual(t, pinned.Paths, want.Paths)

	// A pin outside the retention window is 410 Gone.
	resp, data = h.postQuery(t, `{"source":5,"target":90,"k":2,"epoch":99999}`, nil)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted-epoch status %d (%s), want 410", resp.StatusCode, data)
	}
}

func TestStreamMatchesEngine(t *testing.T) {
	h := newHarness(t, Options{Rate: -1})
	resp, err := http.Get(h.ts.URL + "/v1/ksp/stream?source=7&target=120&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var streamed []pathJSON
	var final *streamLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			final = &line
			break
		}
		if line.Path == nil {
			t.Fatalf("line is neither path nor terminal: %q", sc.Text())
		}
		streamed = append(streamed, *line.Path)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("stream ended without a terminal line")
	}
	if final.Error != "" {
		t.Fatalf("stream reported error %q", final.Error)
	}
	if final.Paths != len(streamed) {
		t.Fatalf("terminal line counts %d paths, streamed %d", final.Paths, len(streamed))
	}
	view := h.index.ViewAt(final.Epoch)
	if view == nil {
		t.Fatalf("epoch %d not retained", final.Epoch)
	}
	want, err := h.engine().QueryViewCtx(context.Background(), view, 7, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	requirePathsEqual(t, streamed, want.Paths)
	if final.Converged != want.Converged {
		t.Errorf("stream converged %v != engine %v", final.Converged, want.Converged)
	}
}

func TestRateLimit429(t *testing.T) {
	now := time.Now()
	h := newHarness(t, Options{
		Rate:  10,
		Burst: 2,
		now:   func() time.Time { return now }, // frozen clock: no refill
	})
	codes := make([]int, 0, 3)
	for i := 0; i < 3; i++ {
		resp, _ := h.postQuery(t, `{"source":1,"target":50,"k":2}`, map[string]string{"X-API-Key": "alice"})
		codes = append(codes, resp.StatusCode)
		if resp.StatusCode == http.StatusTooManyRequests {
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("429 Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
			}
		}
	}
	if codes[0] != 200 || codes[1] != 200 || codes[2] != 429 {
		t.Fatalf("status sequence %v, want [200 200 429]", codes)
	}
	// A different API key has its own bucket.
	resp, _ := h.postQuery(t, `{"source":1,"target":50,"k":2}`, map[string]string{"X-API-Key": "bob"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other key status %d, want 200", resp.StatusCode)
	}
	if got := h.gw.rateLimited.Value(); got != 1 {
		t.Fatalf("rate-limited counter %d, want 1", got)
	}
}

func TestExpiredDeadlineShed504(t *testing.T) {
	h := newHarness(t, Options{Rate: -1})
	resp, data := h.postQuery(t, `{"source":1,"target":50,"k":2}`,
		map[string]string{"Request-Timeout-Ms": "0"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
	// Shed before reaching a worker: the serve layer never saw the query.
	if st := h.srv.Stats(); st.QueriesServed != 0 {
		t.Fatalf("shed request reached the serve layer: %+v", st)
	}
	if got := h.gw.queueShed.With("interactive").Value(); got != 1 {
		t.Fatalf("queue-shed counter %d, want 1", got)
	}
}

// gatedProvider blocks every refine call until the gate opens, making slot
// occupancy deterministic in admission tests.
type gatedProvider struct {
	inner   core.PartialProvider
	gate    chan struct{} // close to open
	entered chan struct{} // one token per call that reached the provider
}

func newGatedProvider(inner core.PartialProvider) *gatedProvider {
	return &gatedProvider{inner: inner, gate: make(chan struct{}), entered: make(chan struct{}, 64)}
}

func (p *gatedProvider) PartialKSPAsyncCtx(ctx context.Context, iv *dtlp.IndexView, pairs []core.PairRequest, k int) <-chan core.AsyncPartialReply {
	pairs = append([]core.PairRequest(nil), pairs...)
	out := make(chan core.AsyncPartialReply, 1)
	go func() {
		select {
		case p.entered <- struct{}{}:
		default:
		}
		<-p.gate
		out <- <-p.inner.PartialKSPAsyncCtx(ctx, iv, pairs, k)
	}()
	return out
}

// gatedHarness is a single-slot gateway over the paper graph whose engine
// blocks in the refine step until the gate opens.
type gatedHarness struct {
	srv  *serve.Server
	gw   *Gateway
	ts   *httptest.Server
	gate *gatedProvider
}

func newGatedHarness(tb testing.TB, gwOpts Options) *gatedHarness {
	tb.Helper()
	g := testutil.PaperGraph(tb)
	part, err := partition.PartitionGraph(g, 6)
	if err != nil {
		tb.Fatal(err)
	}
	index, err := dtlp.Build(part, dtlp.Config{Xi: 2})
	if err != nil {
		tb.Fatal(err)
	}
	gate := newGatedProvider(core.NewLocalProvider(part, 0))
	srv := serve.New(index, gate, serve.Options{Workers: 2, CacheCapacity: -1})
	gw := New(srv, gwOpts)
	ts := httptest.NewServer(gw)
	h := &gatedHarness{srv: srv, gw: gw, ts: ts, gate: gate}
	tb.Cleanup(func() {
		h.open()
		ts.Close()
		srv.Close()
	})
	return h
}

// open releases every blocked refine call (idempotent).
func (h *gatedHarness) open() {
	defer func() { _ = recover() }() // double close from cleanup
	close(h.gate.gate)
}

func TestQueueWaitShed504(t *testing.T) {
	h := newGatedHarness(t, Options{Rate: -1, InteractiveSlots: 1, QueueDepth: 4})

	// Occupy the only interactive slot with a query stuck in its refine step.
	type result struct {
		code int
		err  error
	}
	occupied := make(chan result, 1)
	go func() {
		resp, err := http.Post(h.ts.URL+"/v1/ksp", "application/json",
			strings.NewReader(`{"source":3,"target":12,"k":2}`))
		if err != nil {
			occupied <- result{err: err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		occupied <- result{code: resp.StatusCode}
	}()
	<-h.gate.entered // the slot-holder reached the engine

	// A queued request whose deadline expires while waiting is shed with 504.
	req, err := http.NewRequest("POST", h.ts.URL+"/v1/ksp",
		strings.NewReader(`{"source":0,"target":15,"k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Request-Timeout-Ms", "80")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued request status %d (%s), want 504", resp.StatusCode, body)
	}
	if got := h.gw.queueShed.With("interactive").Value(); got != 1 {
		t.Fatalf("queue-shed counter %d, want 1", got)
	}

	// Opening the gate lets the slot-holder finish normally.
	h.open()
	res := <-occupied
	if res.err != nil {
		t.Fatalf("slot-holder failed: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("slot-holder status %d, want 200", res.code)
	}
}

func TestQueueFull503(t *testing.T) {
	h := newGatedHarness(t, Options{Rate: -1, InteractiveSlots: 1, QueueDepth: 1})

	done := make(chan int, 2)
	post := func(timeoutMs string) {
		req, _ := http.NewRequest("POST", h.ts.URL+"/v1/ksp",
			strings.NewReader(`{"source":3,"target":12,"k":2}`))
		if timeoutMs != "" {
			req.Header.Set("Request-Timeout-Ms", timeoutMs)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- -1
			return
		}
		_, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}
	go post("") // occupies the slot
	<-h.gate.entered
	go post("") // fills the one queue position
	// Wait until the second request is actually queued.
	deadline := time.Now().Add(5 * time.Second)
	for h.gw.classes[classInteractive].queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The third request finds the queue full: immediate 503.
	resp, err := http.Post(h.ts.URL+"/v1/ksp", "application/json",
		strings.NewReader(`{"source":3,"target":12,"k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status %d, want 503", resp.StatusCode)
	}
	if got := h.gw.queueFull.With("interactive").Value(); got != 1 {
		t.Fatalf("queue-full counter %d, want 1", got)
	}

	h.open()
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("request %d finished with %d, want 200", i, code)
		}
	}
}

func TestMidStreamClientDisconnect(t *testing.T) {
	h := newGatedHarness(t, Options{Rate: -1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET",
		h.ts.URL+"/v1/ksp/stream?source=3&target=12&k=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		// Headers arrive before the first path; block reading the body until
		// the cancel kills the connection.
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		errCh <- err
	}()
	<-h.gate.entered // the stream query is executing (blocked in refine)
	cancel()         // client hangs up mid-stream
	if err := <-errCh; err == nil {
		t.Fatal("client read completed despite cancellation")
	}

	// The gateway notices the disconnect as soon as the handler unblocks.
	deadline := time.Now().Add(5 * time.Second)
	for h.gw.disconnects.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never counted")
		}
		time.Sleep(time.Millisecond)
	}

	// Once the refine unblocks, the engine observes the canceled context and
	// abandons the computation instead of finishing it for nobody.
	h.open()
	deadline = time.Now().Add(5 * time.Second)
	for h.srv.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("serve layer never recorded the cancellation: %+v", h.srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBadInput400(t *testing.T) {
	h := newHarness(t, Options{Rate: -1, MaxK: 8})
	cases := []struct {
		name string
		body string
		hdrs map[string]string
	}{
		{"malformed json", `{"source":`, nil},
		{"negative k", `{"source":1,"target":2,"k":-1}`, nil},
		{"k beyond MaxK", `{"source":1,"target":2,"k":9}`, nil},
		{"out of range source", `{"source":-5,"target":2,"k":2}`, nil},
		{"out of range target", `{"source":1,"target":1000000,"k":2}`, nil},
		{"bad timeout header", `{"source":1,"target":2,"k":2}`, map[string]string{"Request-Timeout-Ms": "soon"}},
	}
	for _, tc := range cases {
		resp, data := h.postQuery(t, tc.body, tc.hdrs)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, data)
		}
	}

	for _, q := range []string{
		"source=x&target=2&k=2", "source=1&target=2&k=0", "source=1&target=2&k=2&epoch=x",
	} {
		resp, err := http.Get(h.ts.URL + "/v1/ksp/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("stream %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestUpdatesValidation(t *testing.T) {
	h := newHarness(t, Options{Rate: -1})
	for _, tc := range []struct {
		name string
		body string
	}{
		{"empty batch", `{"updates":[]}`},
		{"edge out of range", `{"updates":[{"edge":99999999,"weight":2}]}`},
		{"nonpositive weight", `{"updates":[{"edge":0,"weight":0}]}`},
	} {
		resp, err := http.Post(h.ts.URL+"/v1/updates", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, data)
		}
	}
	// No epoch was published by any of the rejected batches.
	if epoch := h.srv.Stats().Epoch; epoch != 0 {
		t.Fatalf("rejected updates advanced the epoch to %d", epoch)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	member := cluster.NewMembership(3, cluster.MembershipOptions{})
	member.ReportFailure(2) // one suspect worker
	h := newHarness(t, Options{Rate: -1, Membership: member})

	// Generate some traffic first.
	if resp, data := h.postQuery(t, `{"source":3,"target":100,"k":2}`, nil); resp.StatusCode != 200 {
		t.Fatalf("query status %d: %s", resp.StatusCode, data)
	}

	resp, err := http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || hr.Status != "ok" {
		t.Fatalf("healthz %d %+v", resp.StatusCode, hr)
	}
	if hr.Workers["up"] != 2 || hr.Workers["suspect"] != 1 {
		t.Fatalf("healthz workers %+v, want 2 up and 1 suspect", hr.Workers)
	}

	resp, err = http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	exposition := string(body)
	for _, want := range []string{
		`gateway_requests_total{route="/v1/ksp",code="200"} 1`,
		"gateway_request_seconds_bucket",
		"kspd_queries_served_total 1",
		"kspd_rpc_batches_total",
		"kspd_failovers_total",
		"kspd_hedged_batches_total",
		"kspd_nonconverged_queries_total",
		"kspd_epoch 0",
		`kspd_workers{state="up"} 2`,
		`kspd_workers{state="suspect"} 1`,
		`kspd_workers{state="down"} 0`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The cluster provider really was exercised: batches flowed.
	if !strings.Contains(exposition, "kspd_rpc_batches_total ") {
		t.Error("rpc batch counter family missing")
	}
}

func TestUnknownRoute404(t *testing.T) {
	h := newHarness(t, Options{Rate: -1})
	resp, err := http.Get(h.ts.URL + "/v2/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestTopologyEndpoint(t *testing.T) {
	h := newHarness(t, Options{Rate: -1})
	postTopo := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(h.ts.URL+"/v1/topology", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	numV := h.g.NumVertices()
	numE := h.g.NumEdges()

	// Validation failures never publish an epoch.
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed json", `{"insert_edges":`},
		{"empty batch", `{}`},
		{"negative add_vertices", `{"add_vertices":-1}`},
		{"self loop", `{"insert_edges":[{"u":3,"v":3,"weight":1}]}`},
		{"nonpositive weight", `{"insert_edges":[{"u":3,"v":4,"weight":0}]}`},
		{"endpoint out of range", fmt.Sprintf(`{"insert_edges":[{"u":3,"v":%d,"weight":1}]}`, numV)},
		{"delete edge out of range", fmt.Sprintf(`{"delete_edges":[%d]}`, numE)},
		{"delete vertex out of range", fmt.Sprintf(`{"delete_vertices":[%d]}`, numV)},
		{"duplicate delete", `{"delete_edges":[1,1]}`},
	} {
		if resp, data := postTopo(tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, data)
		}
	}
	if epoch := h.srv.Stats().Epoch; epoch != 0 {
		t.Fatalf("rejected topology batches advanced the epoch to %d", epoch)
	}

	// A valid batch: a fresh vertex wired to vertex 3 plus a direct cheap
	// shortcut 3->100, deleting edge 0.  Endpoints may reference the vertex
	// added by the same batch (id numV).
	resp, data := postTopo(fmt.Sprintf(
		`{"add_vertices":1,"insert_edges":[{"u":3,"v":%d,"weight":1},{"u":3,"v":100,"weight":0.25}],"delete_edges":[0]}`, numV))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology batch status %d: %s", resp.StatusCode, data)
	}
	var tr struct {
		Epoch            uint64  `json:"epoch"`
		InsertedEdges    []int64 `json:"inserted_edges"`
		DeletedEdges     []int64 `json:"deleted_edges"`
		SubgraphsRebuilt int     `json:"subgraphs_rebuilt"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("decoding topology response %s: %v", data, err)
	}
	if tr.Epoch != 1 {
		t.Errorf("topology epoch = %d, want 1", tr.Epoch)
	}
	if len(tr.InsertedEdges) != 2 || tr.InsertedEdges[0] != int64(numE) {
		t.Errorf("inserted_edges = %v, want ids from %d", tr.InsertedEdges, numE)
	}
	if len(tr.DeletedEdges) != 1 || tr.DeletedEdges[0] != 0 {
		t.Errorf("deleted_edges = %v, want [0]", tr.DeletedEdges)
	}
	if tr.SubgraphsRebuilt < 1 {
		t.Errorf("subgraphs_rebuilt = %d, want >= 1", tr.SubgraphsRebuilt)
	}

	// Queries now answer against the mutated graph: the inserted shortcut is
	// the new best 3->100 path.
	qresp, qdata := h.postQuery(t, `{"source":3,"target":100,"k":1}`, nil)
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("post-topology query status %d: %s", qresp.StatusCode, qdata)
	}
	var qr queryResponse
	if err := json.Unmarshal(qdata, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Epoch != 1 || len(qr.Paths) == 0 || qr.Paths[0].Distance > 0.25+1e-9 {
		t.Fatalf("post-topology query = %+v, want epoch 1 and the 0.25 shortcut", qr)
	}

	// Deleting an already-deleted edge is a state conflict, not a validation
	// failure: 409, and no epoch is published.
	if resp, data := postTopo(`{"delete_edges":[0]}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double delete status %d (%s), want 409", resp.StatusCode, data)
	}
	if epoch := h.srv.Stats().Epoch; epoch != 1 {
		t.Fatalf("conflicting batch advanced the epoch to %d", epoch)
	}

	// The write-path counters surface on /metrics.
	mresp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"kspd_topology_batches_total 1",
		"kspd_subgraphs_rebuilt_total",
		`gateway_requests_total{route="/v1/topology",code="200"} 1`,
		`gateway_requests_total{route="/v1/topology",code="409"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestTopologyBatchSizeLimit(t *testing.T) {
	h := newHarness(t, Options{Rate: -1, MaxTopologyBatch: 2})
	body := `{"delete_edges":[0,1,2]}`
	resp, err := http.Post(h.ts.URL+"/v1/topology", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d (%s), want 400", resp.StatusCode, data)
	}
}

// A weight update on an edge a topology batch deleted is a state conflict
// like a second delete: 409, and no epoch is published.
func TestWeightUpdateOnDeletedEdgeConflicts(t *testing.T) {
	h := newHarness(t, Options{Rate: -1})
	post := func(route, body string) (*http.Response, []byte) {
		resp, err := http.Post(h.ts.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	if resp, data := post("/v1/topology", `{"delete_edges":[5]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d (%s), want 200", resp.StatusCode, data)
	}
	if resp, data := post("/v1/updates", `{"updates":[{"edge":5,"weight":4.5}]}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("update on a deleted edge: status %d (%s), want 409", resp.StatusCode, data)
	}
	if epoch := h.srv.Stats().Epoch; epoch != 1 {
		t.Fatalf("refused update moved the epoch to %d, want 1", epoch)
	}
}
