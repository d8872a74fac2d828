// Package gateway is the HTTP front door of a kspd deployment: the JSON API
// external clients call, with the serving-layer discipline a production
// system needs in front of the query engine — per-API-key token-bucket rate
// limiting, priority classes with bounded deadline-aware admission queues,
// end-to-end deadline propagation (HTTP timeout header → context → engine
// iteration loop), and first-class observability through a hand-rolled
// Prometheus-text metrics registry.
//
// Routes:
//
//	POST /v1/ksp         one KSP query (optionally epoch-pinned), JSON in/out
//	GET  /v1/ksp/stream  the same query streamed as NDJSON, paths emitted as
//	                     the engine settles them
//	POST /v1/updates     a batched edge-weight update
//	POST /v1/topology    a batched topology mutation (edge/vertex insert
//	                     and delete) with incremental index maintenance
//	GET  /healthz        liveness + epoch + worker membership counts
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/traces   retained query traces (see internal/trace), newest
//	                     first; ?n= bounds the count
//	GET  /debug/pprof/*  Go profiling endpoints (only with Options.EnablePprof)
//
// With Options.Tracer set, every admitted request runs under a trace whose
// root "request" span is carried on the request context, so the serve layer,
// engine and cluster transport hang their queue/iteration/rpc/worker spans
// beneath it.  Appending ?debug=1 to /v1/ksp adds the trace id and per-stage
// breakdown to the JSON response.
//
// Status codes: 400 malformed/out-of-range input, 404 unknown route, 409 a
// topology delete or weight update referenced a deleted edge, 410 a pinned
// epoch aged out of the retention window, 429 rate limited (with
// Retry-After), 503 admission queue full, 504 deadline expired (shed while
// queued, or mid-execution).
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/graph"
	"kspdg/internal/metrics"
	"kspdg/internal/serve"
	"kspdg/internal/trace"
)

// Options configures a Gateway.
type Options struct {
	// Rate is the per-API-key admission rate in requests/second; Burst is the
	// bucket depth.  Zero Rate means 100/s; negative disables rate limiting.
	// Zero Burst means max(1, Rate).
	Rate  float64
	Burst int
	// InteractiveSlots and BatchSlots bound the concurrently executing
	// requests per priority class (zero: 16 and 4).  QueueDepth bounds the
	// number waiting for a slot per class (zero: 4x the class's slots).
	InteractiveSlots int
	BatchSlots       int
	QueueDepth       int
	// DefaultTimeout is applied to requests without a Request-Timeout-Ms
	// header; zero means no default.  MaxTimeout caps any client-requested
	// timeout; zero means 60s.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxK bounds the k a query may request (zero: 64).
	MaxK int
	// MaxUpdateBatch bounds the updates accepted per /v1/updates call
	// (zero: 65536).
	MaxUpdateBatch int
	// MaxTopologyBatch bounds the total mutation count (added vertices +
	// inserted edges + deleted edges + deleted vertices) accepted per
	// /v1/topology call (zero: 4096).  Topology batches rebuild bounding
	// paths for every touched subgraph, so they are orders of magnitude more
	// expensive than weight updates and get a tighter default.
	MaxTopologyBatch int
	// Registry receives the gateway's metrics and serves /metrics.  Nil
	// creates a private registry.
	Registry *metrics.Registry
	// Membership, when set, exports worker health states on /healthz and
	// /metrics (kspd passes the worker provider's failure detector).
	Membership *cluster.Membership
	// Tracer, when set, traces every admitted request and serves the retained
	// traces on GET /debug/traces.  Nil disables tracing entirely (requests
	// pay one context lookup per stage and nothing else).
	Tracer *trace.Tracer
	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ on the gateway mux (kspd's -pprof flag).
	EnablePprof bool
	// now overrides the rate limiter's clock in tests.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Rate == 0 {
		o.Rate = 100
	}
	if o.InteractiveSlots <= 0 {
		o.InteractiveSlots = 16
	}
	if o.BatchSlots <= 0 {
		o.BatchSlots = 4
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 60 * time.Second
	}
	if o.MaxK <= 0 {
		o.MaxK = 64
	}
	if o.MaxUpdateBatch <= 0 {
		o.MaxUpdateBatch = 65536
	}
	if o.MaxTopologyBatch <= 0 {
		o.MaxTopologyBatch = 4096
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Gateway is the HTTP handler fronting one serve.Server.
type Gateway struct {
	srv     *serve.Server
	opts    Options
	reg     *metrics.Registry
	mux     *http.ServeMux
	limiter *rateLimiter
	classes [numClasses]*admitter

	requests    *metrics.CounterVec
	latency     *metrics.HistogramVec
	rateLimited *metrics.Counter
	queueShed   *metrics.CounterVec
	queueFull   *metrics.CounterVec
	disconnects *metrics.Counter
	streamed    *metrics.Counter
}

// New builds a gateway over the server and registers every metric family.
func New(srv *serve.Server, opts Options) *Gateway {
	opts = opts.withDefaults()
	g := &Gateway{
		srv:     srv,
		opts:    opts,
		reg:     opts.Registry,
		limiter: newRateLimiter(opts.Rate, opts.Burst, opts.now),
	}
	for c := class(0); c < numClasses; c++ {
		slots := opts.InteractiveSlots
		if c == classBatch {
			slots = opts.BatchSlots
		}
		depth := opts.QueueDepth
		if depth <= 0 {
			depth = 4 * slots
		}
		g.classes[c] = newAdmitter(slots, depth)
	}
	g.registerMetrics()
	g.mux = http.NewServeMux()
	g.mux.Handle("POST /v1/ksp", g.admitted("/v1/ksp", g.handleQuery))
	g.mux.Handle("GET /v1/ksp/stream", g.admitted("/v1/ksp/stream", g.handleStream))
	g.mux.Handle("POST /v1/updates", g.admitted("/v1/updates", g.handleUpdates))
	g.mux.Handle("POST /v1/topology", g.admitted("/v1/topology", g.handleTopology))
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.Handle("GET /metrics", g.reg.Handler())
	g.mux.HandleFunc("GET /debug/traces", g.handleTraces)
	if opts.EnablePprof {
		g.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		g.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		g.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		g.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		g.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return g
}

// Registry returns the gateway's metrics registry.
func (g *Gateway) Registry() *metrics.Registry { return g.reg }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// ---- admission wrapper ----

// statusRecorder captures the status a handler wrote so the wrapper can
// label its metrics, including for streaming handlers that write the header
// long before they finish.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so NDJSON streaming flushes reach
// the client even through the recorder.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// admitted wraps a handler with the full admission pipeline: rate limit,
// deadline derivation, priority classification, bounded deadline-aware
// queueing, and per-route metrics.
func (g *Gateway) admitted(route string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		tr, root := g.opts.Tracer.StartTrace("request")
		if root != nil {
			root.SetAttr("route", route)
			r = r.WithContext(trace.NewContext(r.Context(), root))
		}
		g.serveAdmitted(sr, r, route, h)
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		if tr != nil {
			root.SetAttrInt("status", int64(sr.status))
			switch {
			case sr.status == 499 || sr.status == http.StatusGatewayTimeout:
				tr.MarkCanceled()
			case sr.status >= 500:
				tr.MarkError()
			}
			tr.Finish()
		}
		g.requests.With(route, strconv.Itoa(sr.status)).Inc()
		g.latency.With(route).Observe(time.Since(start).Seconds())
	})
}

func (g *Gateway) serveAdmitted(w http.ResponseWriter, r *http.Request, route string, h func(http.ResponseWriter, *http.Request)) {
	// The admission span covers everything between arrival and the handler:
	// rate limiting, deadline derivation, and the wait for a class slot.
	aspan := trace.FromContext(r.Context()).Child("admission")
	defer aspan.Finish()
	if ok, retry := g.limiter.allow(apiKey(r)); !ok {
		g.rateLimited.Inc()
		aspan.SetAttr("rejected", "rate_limited")
		secs := int(retry/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("rate limit exceeded, retry in %ds", secs))
		return
	}

	ctx, cancel, err := g.requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer cancel()

	cl := requestClass(r)
	adm := g.classes[cl]
	if err := adm.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			g.queueFull.With(cl.String()).Inc()
			writeError(w, http.StatusServiceUnavailable, "admission queue full")
		case errors.Is(err, context.Canceled):
			// The client hung up while queued: not an overload signal, so it
			// counts as a disconnect rather than a deadline shed.
			g.disconnects.Inc()
			writeError(w, 499, "client closed request")
		default:
			g.queueShed.With(cl.String()).Inc()
			writeError(w, http.StatusGatewayTimeout,
				"deadline expired before the request reached a worker")
		}
		return
	}
	defer adm.release()
	aspan.Finish() // admission ends at slot acquisition, not handler return
	h(w, r.WithContext(ctx))
}

// requestContext derives the request's context deadline from the
// Request-Timeout-Ms header (bounded by MaxTimeout) or DefaultTimeout.  An
// explicit zero header means the client has no time budget left — the
// context comes back already expired and admission sheds the request with
// 504 before it can reach a worker.
func (g *Gateway) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	timeout := g.opts.DefaultTimeout
	if hdr := r.Header.Get("Request-Timeout-Ms"); hdr != "" {
		ms, err := strconv.ParseInt(hdr, 10, 64)
		if err != nil || ms < 0 {
			return nil, nil, fmt.Errorf("malformed Request-Timeout-Ms header %q", hdr)
		}
		if ms == 0 {
			ctx, cancel := context.WithDeadline(ctx, time.Unix(0, 0))
			return ctx, cancel, nil
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout <= 0 {
		ctx, cancel := context.WithCancel(ctx)
		return ctx, cancel, nil
	}
	if timeout > g.opts.MaxTimeout {
		timeout = g.opts.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, cancel, nil
}

func apiKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func requestClass(r *http.Request) class {
	if r.Header.Get("X-Priority") == "batch" {
		return classBatch
	}
	return classInteractive
}

// ---- JSON shapes ----

type pathJSON struct {
	Vertices []graph.VertexID `json:"vertices"`
	Distance float64          `json:"distance"`
}

func toPathJSON(p graph.Path) pathJSON {
	return pathJSON{Vertices: p.Vertices, Distance: p.Dist}
}

type queryRequest struct {
	Source int64   `json:"source"`
	Target int64   `json:"target"`
	K      int     `json:"k"`
	Epoch  *uint64 `json:"epoch,omitempty"`
}

// request is the serve request for q, streaming through yield when it is set.
func (q queryRequest) request(yield func(graph.Path) error) serve.Request {
	return serve.Request{
		Src: graph.VertexID(q.Source), Dst: graph.VertexID(q.Target), K: q.K,
		Epoch: q.Epoch, Yield: yield,
	}
}

type queryResponse struct {
	Paths []pathJSON `json:"paths"`
	Epoch uint64     `json:"epoch"`
	// Converged is true exactly when the answer is exact; false means a
	// safety valve cut the search and the paths may not be the k shortest.
	Converged  bool  `json:"converged"`
	Iterations int   `json:"iterations"`
	ElapsedUs  int64 `json:"elapsed_us"`
	// Trace is present only for ?debug=1 requests on a tracing gateway: the
	// request's trace id (look it up on /debug/traces) and its per-stage
	// duration breakdown so far.
	Trace *traceDebugJSON `json:"trace,omitempty"`
}

type traceDebugJSON struct {
	ID     string             `json:"id"`
	Stages map[string]float64 `json:"stages_ms"`
}

type updateJSON struct {
	Edge   int64   `json:"edge"`
	Weight float64 `json:"weight"`
}

type updatesRequest struct {
	Updates []updateJSON `json:"updates"`
}

type updatesResponse struct {
	Applied int    `json:"applied"`
	Epoch   uint64 `json:"epoch"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// writeApplyError maps a refused write onto its HTTP status: a batch naming
// an edge a topology batch already deleted is a state conflict, not
// malformed input (409); any other batch the index check refuses is the
// client's error (400); anything else is the server's failure.
func writeApplyError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, graph.ErrEdgeDeleted):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, serve.ErrInvalidBatch):
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// ---- route handlers ----

// validateQuery bounds-checks the query against the graph so malformed input
// fails fast with 400 instead of surfacing as an engine error.
func (g *Gateway) validateQuery(q queryRequest) error {
	n := int64(g.srv.Index().Partition().Parent().NumVertices())
	if q.Source < 0 || q.Source >= n || q.Target < 0 || q.Target >= n {
		return fmt.Errorf("query endpoints (%d,%d) outside [0,%d)", q.Source, q.Target, n)
	}
	if q.K <= 0 || q.K > g.opts.MaxK {
		return fmt.Errorf("k must be in [1,%d], got %d", g.opts.MaxK, q.K)
	}
	return nil
}

// finishQueryError maps an execution error onto its HTTP status.
func (g *Gateway) finishQueryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, serve.ErrEpochEvicted):
		writeError(w, http.StatusGone, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline expired during query execution")
	case errors.Is(err, context.Canceled):
		// The client hung up; nobody is reading the response.  499 is the
		// de facto status for client-closed requests (it only reaches the
		// metrics label).
		g.disconnects.Inc()
		writeError(w, 499, "client closed request")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&q); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return
	}
	if err := g.validateQuery(q); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := g.srv.Query(r.Context(), q.request(nil))
	if err != nil {
		g.finishQueryError(w, r, err)
		return
	}
	out := toQueryResponse(res)
	if r.URL.Query().Get("debug") == "1" {
		if tr := trace.FromContext(r.Context()).Trace(); tr != nil {
			stages := make(map[string]float64, 8)
			for name, d := range tr.Stages() {
				stages[name] = float64(d) / float64(time.Millisecond)
			}
			out.Trace = &traceDebugJSON{ID: trace.IDString(tr.ID()), Stages: stages}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func toQueryResponse(res core.Result) queryResponse {
	out := queryResponse{
		Paths:      make([]pathJSON, 0, len(res.Paths)),
		Epoch:      res.Epoch,
		Converged:  res.Converged,
		Iterations: res.Iterations,
		ElapsedUs:  res.Elapsed.Microseconds(),
	}
	for _, p := range res.Paths {
		out.Paths = append(out.Paths, toPathJSON(p))
	}
	return out
}

// streamLine is one NDJSON record of /v1/ksp/stream: either a path or the
// terminal summary (Done=true).  Encoding always goes through pathLine or
// doneLine so a terminal line carries its epoch even when it is zero;
// streamLine is the decode shape clients (and tests) read either into.
type streamLine struct {
	Path       *pathJSON `json:"path,omitempty"`
	Done       bool      `json:"done,omitempty"`
	Epoch      uint64    `json:"epoch"`
	Converged  bool      `json:"converged"`
	Paths      int       `json:"paths"`
	Iterations int       `json:"iterations"`
	Error      string    `json:"error,omitempty"`
}

type pathLine struct {
	Path pathJSON `json:"path"`
}

type doneLine struct {
	Done       bool   `json:"done"`
	Epoch      uint64 `json:"epoch"`
	Converged  bool   `json:"converged"`
	Paths      int    `json:"paths"`
	Iterations int    `json:"iterations"`
	Error      string `json:"error,omitempty"`
}

func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	q, err := streamParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := g.validateQuery(q); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Resolve a pinned epoch before committing to a 200: eviction must be a
	// clean 410, not a mid-stream error line.
	if q.Epoch != nil && g.srv.Index().ViewAt(*q.Epoch) == nil {
		writeError(w, http.StatusGone,
			fmt.Sprintf("epoch %d evicted from the retention window", *q.Epoch))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	yield := func(p graph.Path) error {
		// yield runs on the pool worker executing the query while this
		// handler goroutine blocks in Query, so writes never race.
		if err := enc.Encode(pathLine{Path: toPathJSON(p)}); err != nil {
			return fmt.Errorf("gateway: client write failed: %w", err)
		}
		if flusher != nil {
			flusher.Flush()
		}
		g.streamed.Inc()
		return nil
	}
	res, err := g.srv.Query(r.Context(), q.request(yield))
	if err != nil {
		if errors.Is(err, context.Canceled) {
			g.disconnects.Inc()
			return // the client is gone; nothing to tell it
		}
		// The header is already out; the NDJSON contract is a terminal error
		// line instead of a status code.
		_ = enc.Encode(doneLine{Done: true, Error: err.Error()})
		return
	}
	_ = enc.Encode(doneLine{
		Done:       true,
		Epoch:      res.Epoch,
		Converged:  res.Converged,
		Paths:      len(res.Paths),
		Iterations: res.Iterations,
	})
	if flusher != nil {
		flusher.Flush()
	}
}

func streamParams(r *http.Request) (queryRequest, error) {
	var q queryRequest
	vals := r.URL.Query()
	var err error
	if q.Source, err = strconv.ParseInt(vals.Get("source"), 10, 64); err != nil {
		return q, fmt.Errorf("malformed source %q", vals.Get("source"))
	}
	if q.Target, err = strconv.ParseInt(vals.Get("target"), 10, 64); err != nil {
		return q, fmt.Errorf("malformed target %q", vals.Get("target"))
	}
	if q.K, err = strconv.Atoi(vals.Get("k")); err != nil {
		return q, fmt.Errorf("malformed k %q", vals.Get("k"))
	}
	if e := vals.Get("epoch"); e != "" {
		epoch, err := strconv.ParseUint(e, 10, 64)
		if err != nil {
			return q, fmt.Errorf("malformed epoch %q", e)
		}
		q.Epoch = &epoch
	}
	return q, nil
}

func (g *Gateway) handleUpdates(w http.ResponseWriter, r *http.Request) {
	var req updatesRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return
	}
	if len(req.Updates) == 0 {
		writeError(w, http.StatusBadRequest, "empty update batch")
		return
	}
	if len(req.Updates) > g.opts.MaxUpdateBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("update batch of %d exceeds the %d limit", len(req.Updates), g.opts.MaxUpdateBatch))
		return
	}
	vspan := trace.FromContext(r.Context()).Child("validate")
	defer vspan.Finish() // first Finish wins; this only covers early returns
	numEdges := int64(g.srv.Index().Partition().Parent().NumEdges())
	batch := make([]graph.WeightUpdate, 0, len(req.Updates))
	for _, u := range req.Updates {
		if u.Edge < 0 || u.Edge >= numEdges {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("edge %d outside [0,%d)", u.Edge, numEdges))
			return
		}
		if u.Weight <= 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("edge %d: weight must be positive, got %v", u.Edge, u.Weight))
			return
		}
		batch = append(batch, graph.WeightUpdate{Edge: graph.EdgeID(u.Edge), NewWeight: u.Weight})
	}
	vspan.Finish()
	// The epoch comes from the apply itself: a concurrent writer may publish
	// further epochs before this response is written, and a client pinning
	// follow-up reads to the returned epoch must get its own batch's weights.
	epoch, err := g.srv.ApplyUpdates(r.Context(), batch)
	if err != nil {
		writeApplyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, updatesResponse{
		Applied: len(batch),
		Epoch:   epoch,
	})
}

// ---- topology ----

type insertEdgeJSON struct {
	U      int64   `json:"u"`
	V      int64   `json:"v"`
	Weight float64 `json:"weight"`
}

type topologyRequest struct {
	AddVertices    int              `json:"add_vertices,omitempty"`
	InsertEdges    []insertEdgeJSON `json:"insert_edges,omitempty"`
	DeleteEdges    []int64          `json:"delete_edges,omitempty"`
	DeleteVertices []int64          `json:"delete_vertices,omitempty"`
}

type topologyResponse struct {
	Epoch uint64 `json:"epoch"`
	// InsertedEdges are the global edge ids assigned to insert_edges, in
	// request order; clients reference them in later weight updates and
	// deletes.  DeletedEdges are the sorted ids of every edge the batch
	// removed, including edges removed because an endpoint was deleted.
	InsertedEdges    []graph.EdgeID `json:"inserted_edges"`
	DeletedEdges     []graph.EdgeID `json:"deleted_edges"`
	SubgraphsRebuilt int            `json:"subgraphs_rebuilt"`
}

func (g *Gateway) handleTopology(w http.ResponseWriter, r *http.Request) {
	var req topologyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return
	}
	size := req.AddVertices + len(req.InsertEdges) + len(req.DeleteEdges) + len(req.DeleteVertices)
	if size == 0 {
		writeError(w, http.StatusBadRequest, "empty topology batch")
		return
	}
	if req.AddVertices < 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("add_vertices must be non-negative, got %d", req.AddVertices))
		return
	}
	if size > g.opts.MaxTopologyBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("topology batch of %d mutations exceeds the %d limit", size, g.opts.MaxTopologyBatch))
		return
	}
	// Validation runs against the pre-batch graph exactly like the engine's
	// own checks, so malformed input fails with 400 before touching the
	// writer path.  Inserted endpoints may reference vertices this same
	// batch adds.
	vspan := trace.FromContext(r.Context()).Child("validate")
	defer vspan.Finish() // first Finish wins; this only covers early returns
	parent := g.srv.Index().Partition().Parent()
	numV := int64(parent.NumVertices()) + int64(req.AddVertices)
	numE := int64(parent.NumEdges())
	up := graph.TopologyUpdate{AddVertices: req.AddVertices}
	for i, e := range req.InsertEdges {
		if e.U < 0 || e.U >= numV || e.V < 0 || e.V >= numV {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("insert_edges[%d] endpoints (%d,%d) outside [0,%d)", i, e.U, e.V, numV))
			return
		}
		if e.U == e.V {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("insert_edges[%d] is a self-loop on vertex %d", i, e.U))
			return
		}
		if e.Weight <= 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("insert_edges[%d]: weight must be positive, got %v", i, e.Weight))
			return
		}
		up.InsertEdges = append(up.InsertEdges, graph.Edge{
			U: graph.VertexID(e.U), V: graph.VertexID(e.V), Weight: e.Weight,
		})
	}
	for i, e := range req.DeleteEdges {
		if e < 0 || e >= numE {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("delete_edges[%d] id %d outside [0,%d)", i, e, numE))
			return
		}
		up.DeleteEdges = append(up.DeleteEdges, graph.EdgeID(e))
	}
	for i, v := range req.DeleteVertices {
		if v < 0 || v >= numV {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("delete_vertices[%d] id %d outside [0,%d)", i, v, numV))
			return
		}
		up.DeleteVertices = append(up.DeleteVertices, graph.VertexID(v))
	}
	vspan.Finish()
	// The epoch, edge-id assignments and rebuild count come from the apply
	// itself, so a client interleaved with concurrent writers attributes its
	// own batch exactly (mirrors /v1/updates).
	st, err := g.srv.ApplyTopology(r.Context(), up)
	if err != nil {
		writeApplyError(w, err)
		return
	}
	ins := st.InsertedEdges
	if ins == nil {
		ins = []graph.EdgeID{}
	}
	del := st.DeletedEdges
	if del == nil {
		del = []graph.EdgeID{}
	}
	writeJSON(w, http.StatusOK, topologyResponse{
		Epoch:            st.Epoch,
		InsertedEdges:    ins,
		DeletedEdges:     del,
		SubgraphsRebuilt: st.SubgraphsRebuilt,
	})
}

type healthResponse struct {
	Status  string         `json:"status"`
	Epoch   uint64         `json:"epoch"`
	Workers map[string]int `json:"workers,omitempty"`
}

// handleTraces serves the retained traces, newest first.  ?n= bounds how many
// are returned (default 32).  Without a tracer the list is empty.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 32
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed n %q", s))
			return
		}
		n = v
	}
	views := g.opts.Tracer.Snapshot(n)
	if views == nil {
		views = []trace.TraceView{}
	}
	started, retained := g.opts.Tracer.Stats()
	writeJSON(w, http.StatusOK, struct {
		Started  uint64            `json:"traces_started"`
		Retained uint64            `json:"traces_retained"`
		Traces   []trace.TraceView `json:"traces"`
	}{started, retained, views})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthResponse{Status: "ok", Epoch: g.srv.Stats().Epoch}
	if g.opts.Membership != nil {
		up, suspect, down := g.opts.Membership.Counts()
		h.Workers = map[string]int{"up": up, "suspect": suspect, "down": down}
	}
	writeJSON(w, http.StatusOK, h)
}

// ---- metrics wiring ----

// registerMetrics installs the gateway's own families plus scrape-time
// bridges to the serve layer's scheduling counters, the refine transport's
// batching/failover counters, and (when provided) worker membership.
func (g *Gateway) registerMetrics() {
	r := g.reg
	g.requests = r.CounterVec("gateway_requests_total",
		"HTTP requests by route and status code.", "route", "code")
	g.latency = r.HistogramVec("gateway_request_seconds",
		"End-to-end request latency by route, including queue wait.", nil, "route")
	g.rateLimited = r.Counter("gateway_rate_limited_total",
		"Requests rejected with 429 by the per-key token bucket.")
	g.queueShed = r.CounterVec("gateway_queue_shed_total",
		"Requests shed with 504 because their deadline expired while queued.", "class")
	g.queueFull = r.CounterVec("gateway_queue_full_total",
		"Requests rejected with 503 because the class admission queue was full.", "class")
	g.disconnects = r.Counter("gateway_client_disconnects_total",
		"Requests abandoned because the client hung up mid-flight.")
	g.streamed = r.Counter("gateway_streamed_paths_total",
		"Paths emitted on /v1/ksp/stream before query completion.")
	for c := class(0); c < numClasses; c++ {
		c := c
		r.GaugeFunc("gateway_inflight_"+c.String(),
			"Currently executing "+c.String()+" requests.",
			func() float64 { return float64(g.classes[c].inFlight()) })
		r.GaugeFunc("gateway_queued_"+c.String(),
			"Requests waiting for a "+c.String()+" slot.",
			func() float64 { return float64(g.classes[c].queued()) })
	}

	stats := func(f func(serve.Stats) int64) func() float64 {
		return func() float64 { return float64(f(g.srv.Stats())) }
	}
	r.GaugeFunc("kspd_epoch", "Current index epoch.",
		func() float64 { return float64(g.srv.Stats().Epoch) })
	r.CounterFunc("kspd_queries_served_total", "Completed queries, including cache hits.",
		stats(func(s serve.Stats) int64 { return s.QueriesServed }))
	r.CounterFunc("kspd_cache_hits_total", "Queries answered from the epoch-tagged result cache.",
		stats(func(s serve.Stats) int64 { return s.CacheHits }))
	r.CounterFunc("kspd_nonconverged_queries_total",
		"Queries answered without proof of exactness: a safety valve cut the search (paths valid, possibly not the k shortest).",
		stats(func(s serve.Stats) int64 { return s.NonConverged }))
	r.CounterFunc("kspd_canceled_queries_total",
		"Queries abandoned by cancellation or deadline expiry.",
		stats(func(s serve.Stats) int64 { return s.Canceled }))
	r.CounterFunc("kspd_panics_total",
		"Panics contained on a query pool worker (one query failed) or in a refine batch sender (that batch's queries failed); stack in the process log.",
		stats(func(s serve.Stats) int64 { return s.Panics }))
	r.CounterFunc("kspd_update_batches_total", "Weight-update batches applied.",
		stats(func(s serve.Stats) int64 { return s.UpdateBatches }))
	r.CounterFunc("kspd_updates_applied_total", "Individual edge-weight updates applied.",
		stats(func(s serve.Stats) int64 { return s.UpdatesApplied }))
	r.CounterFunc("kspd_topology_batches_total", "Topology mutation batches applied.",
		stats(func(s serve.Stats) int64 { return s.TopologyBatches }))
	r.CounterFunc("kspd_subgraphs_rebuilt_total",
		"Subgraph index rebuilds performed by topology batches (incremental maintenance cost).",
		stats(func(s serve.Stats) int64 { return s.SubgraphsRebuilt }))
	r.CounterFunc("kspd_snapshots_total", "Periodic index snapshots written.",
		stats(func(s serve.Stats) int64 { return s.Snapshots }))
	r.CounterFunc("kspd_rpc_batches_total", "Partial-KSP requests shipped to workers, one per refine share.",
		stats(func(s serve.Stats) int64 { return s.RPCBatches }))
	r.CounterFunc("kspd_failovers_total", "Refine shares (one query's pairs for one worker) re-routed after the worker failed.",
		stats(func(s serve.Stats) int64 { return s.Failovers }))
	r.CounterFunc("kspd_hedged_batches_total", "Refine shares re-routed speculatively because their worker was slow.",
		stats(func(s serve.Stats) int64 { return s.HedgedBatches }))
	r.CounterFunc("kspd_hedge_wins_total", "Hedged shares whose re-routed answer beat the first worker's.",
		stats(func(s serve.Stats) int64 { return s.HedgeWins }))
	r.CounterFunc("kspd_hedge_drops_total", "Duplicate hedge-race replies discarded.",
		stats(func(s serve.Stats) int64 { return s.HedgeDrops }))
	if g.opts.Membership != nil {
		r.GaugeVecFunc("kspd_workers", "Worker count by membership health state.",
			"state", []string{"up", "suspect", "down"}, func() []float64 {
				up, suspect, down := g.opts.Membership.Counts()
				return []float64{float64(up), float64(suspect), float64(down)}
			})
	}
}
