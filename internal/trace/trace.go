// Package trace is a dependency-free span/trace layer in the style of
// internal/metrics: no third-party imports, instance-based (no globals), and
// cheap enough to leave on in production.  A Tracer hands out Traces; a Trace
// is a bounded set of Spans sharing one 64-bit trace ID; a Span measures one
// pipeline stage with monotonic timings and a small set of key=value
// attributes.  Finished traces pass through tail-based retention: slow,
// non-converged, failed-over, canceled, and errored queries are always kept,
// plus a seeded pseudo-random sample of normal ones, in a fixed-capacity ring
// buffer served by `GET /debug/traces`.
//
// Spans flow between pipeline stages inside a context.Context (see
// FromContext / NewContext / StartSpan) and across process boundaries as
// []SpanMsg (see Span.Graft), so worker-side execution spans stitch into the
// master-side trace.  All methods are nil-receiver safe: an untraced request
// pays one context lookup and nothing else.
package trace

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Flag bits recorded on a Trace; any set bit forces retention.
const (
	flagSlow uint32 = 1 << iota
	flagNonConverged
	flagFailedOver
	flagCanceled
	flagError
)

// Defaults applied by New when the corresponding Options field is zero.
const (
	DefaultCapacity   = 256
	DefaultMaxSpans   = 512
	DefaultMaxAttrs   = 16
	defaultSampleRate = 0.05
)

// Options configures a Tracer.
type Options struct {
	// Capacity is the number of retained traces kept in the ring buffer.
	// Zero means DefaultCapacity.
	Capacity int
	// SampleRate is the probability that a normal (fast, converged,
	// un-flagged) trace is retained.  Zero means defaultSampleRate; set a
	// negative value to retain no normal traces.
	SampleRate float64
	// SlowThreshold marks any trace whose root duration meets or exceeds it
	// as slow (always retained).  Zero disables the slow rule.
	SlowThreshold time.Duration
	// MaxSpans bounds the spans recorded per trace; later spans are counted
	// as dropped instead.  Zero means DefaultMaxSpans.
	MaxSpans int
	// Seed seeds the sampling/ID RNG so retention is reproducible in tests.
	// Zero means a fixed default seed (the tracer is still deterministic).
	Seed int64
	// OnSpanFinish, when non-nil, is invoked for every finished span with
	// its name and duration — the bridge into a metrics histogram such as
	// kspd_stage_seconds{stage=...}.  It must be safe for concurrent use.
	OnSpanFinish func(name string, d time.Duration)
}

// Tracer creates traces and owns the retention ring.
type Tracer struct {
	opts Options

	mu      sync.Mutex
	rng     *rand.Rand
	ring    []*Trace // ring buffer of retained traces
	next    int      // next ring slot to overwrite
	started uint64
	kept    uint64
}

// New returns a Tracer with the given options.  A nil Tracer is valid and
// records nothing.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.SampleRate == 0 {
		opts.SampleRate = defaultSampleRate
	}
	if opts.MaxSpans <= 0 {
		opts.MaxSpans = DefaultMaxSpans
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Tracer{
		opts: opts,
		rng:  rand.New(rand.NewSource(seed)),
		ring: make([]*Trace, 0, opts.Capacity),
	}
}

// StartTrace begins a new trace whose root span has the given name.  Returns
// (nil, nil) on a nil tracer.
func (t *Tracer) StartTrace(name string) (*Trace, *Span) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	id := uint64(t.rng.Int63())<<1 | 1 // nonzero; zero means "untraced" on the wire
	t.started++
	t.mu.Unlock()
	tr := &Trace{
		tracer: t,
		id:     id,
		start:  time.Now(),
	}
	root := tr.newSpan(name, 0)
	tr.root = root
	return tr, root
}

// Stats reports how many traces were started and how many were retained.
func (t *Tracer) Stats() (started, retained uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started, t.kept
}

// finish applies tail-based retention to a finished trace.
func (t *Tracer) finish(tr *Trace) {
	keep := tr.flagBits() != 0
	t.mu.Lock()
	defer t.mu.Unlock()
	if !keep && t.opts.SampleRate > 0 {
		keep = t.rng.Float64() < t.opts.SampleRate
	}
	if !keep {
		return
	}
	t.kept++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, tr)
		return
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
}

// Trace is one query's bounded collection of spans.
type Trace struct {
	tracer *Tracer
	id     uint64
	start  time.Time
	root   *Span

	flags    uint32 // atomic
	nextSpan uint64 // atomic span-ID counter

	mu       sync.Mutex
	spans    []*Span
	dropped  int
	finished bool
	dur      time.Duration
}

// ID returns the 64-bit trace identifier (zero on a nil trace).
func (tr *Trace) ID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.id
}

// MarkNonConverged flags the trace as an iteration-cap/non-converged outlier.
func (tr *Trace) MarkNonConverged() { tr.mark(flagNonConverged) }

// MarkFailedOver flags the trace as having taken a failover leg.
func (tr *Trace) MarkFailedOver() { tr.mark(flagFailedOver) }

// MarkCanceled flags the trace as canceled (deadline or client disconnect).
func (tr *Trace) MarkCanceled() { tr.mark(flagCanceled) }

// MarkError flags the trace as failed.
func (tr *Trace) MarkError() { tr.mark(flagError) }

func (tr *Trace) mark(bit uint32) {
	if tr == nil {
		return
	}
	for {
		old := atomic.LoadUint32(&tr.flags)
		if old&bit != 0 || atomic.CompareAndSwapUint32(&tr.flags, old, old|bit) {
			return
		}
	}
}

func (tr *Trace) flagBits() uint32 { return atomic.LoadUint32(&tr.flags) }

// Finish closes the trace (finishing the root span if still open), applies
// the slow-threshold rule, and hands it to the tracer's retention ring.
// Calling Finish more than once is a no-op.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.root.Finish()
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	tr.dur = tr.root.Duration()
	tr.mu.Unlock()
	if st := tr.tracer.opts.SlowThreshold; st > 0 && tr.dur >= st {
		tr.mark(flagSlow)
	}
	tr.tracer.finish(tr)
}

// Duration returns the root span's duration once finished, else the elapsed
// time so far.
func (tr *Trace) Duration() time.Duration {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	fin, d := tr.finished, tr.dur
	tr.mu.Unlock()
	if fin {
		return d
	}
	return time.Since(tr.start)
}

// newSpan allocates and records a span, honouring the per-trace bound.
func (tr *Trace) newSpan(name string, parent uint64) *Span {
	return tr.newSpanAt(name, parent, time.Now())
}

func (tr *Trace) newSpanAt(name string, parent uint64, start time.Time) *Span {
	if tr == nil {
		return nil
	}
	s := &Span{
		tr:     tr,
		id:     atomic.AddUint64(&tr.nextSpan, 1),
		parent: parent,
		name:   name,
		start:  start,
	}
	tr.mu.Lock()
	if len(tr.spans) >= tr.tracer.opts.MaxSpans {
		tr.dropped++
		tr.mu.Unlock()
		s.recorded = false
		return s
	}
	s.recorded = true
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s
}

// Stages aggregates finished-span durations by span name.  Unfinished spans
// are skipped.  Returns nil on a nil trace.
func (tr *Trace) Stages() map[string]time.Duration {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	spans := append([]*Span(nil), tr.spans...)
	tr.mu.Unlock()
	out := make(map[string]time.Duration, 8)
	for _, s := range spans {
		if s.Finished() {
			out[s.name] += s.Duration()
		}
	}
	return out
}

// Span measures one stage of one trace.
type Span struct {
	tr       *Trace
	id       uint64
	parent   uint64
	name     string
	start    time.Time
	recorded bool // false once the trace hit its span bound

	done  uint32 // atomic; 1 after Finish
	durNs int64  // atomic; valid once done

	mu    sync.Mutex
	attrs []Attr
}

// Attr is one key=value annotation on a span.  Values are strings so the
// type stays trivially encodable (JSON, the cluster wire).
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Trace returns the span's owning trace (nil-safe).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// ID returns the span's ID within its trace (zero on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Name returns the span's stage name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child starts a sub-span.  Returns nil on a nil receiver, so untraced code
// paths chain through without checks.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, s.id)
}

// SetAttr records a key=value attribute, bounded per span; excess attributes
// are silently dropped.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.attrs) < DefaultMaxAttrs {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// SetAttrInt records an integer attribute.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// Finish closes the span using the monotonic clock.  Double-finish keeps the
// first duration.  Finishing also feeds the tracer's OnSpanFinish bridge.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	if !atomic.CompareAndSwapUint32(&s.done, 0, 1) {
		return
	}
	d := time.Since(s.start)
	atomic.StoreInt64(&s.durNs, int64(d))
	if cb := s.tr.tracer.opts.OnSpanFinish; cb != nil {
		cb(s.name, d)
	}
}

// finishAs closes the span with an externally measured duration (used when
// grafting worker-side spans whose clocks we never saw).
func (s *Span) finishAs(d time.Duration) {
	if s == nil {
		return
	}
	if !atomic.CompareAndSwapUint32(&s.done, 0, 1) {
		return
	}
	atomic.StoreInt64(&s.durNs, int64(d))
	if cb := s.tr.tracer.opts.OnSpanFinish; cb != nil {
		cb(s.name, d)
	}
}

// Finished reports whether Finish has run.
func (s *Span) Finished() bool {
	return s != nil && atomic.LoadUint32(&s.done) == 1
}

// Duration returns the recorded duration, or elapsed time if unfinished.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if atomic.LoadUint32(&s.done) == 1 {
		return time.Duration(atomic.LoadInt64(&s.durNs))
	}
	return time.Since(s.start)
}
