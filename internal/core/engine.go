// Package core implements KSP-DG, the distributed filter-and-refine
// algorithm for answering k shortest path queries over dynamic road networks
// (Section 5 of the paper).
//
// Each iteration computes one more reference path on the skeleton graph Gλ
// (the filter step), asks a PartialProvider for the partial k shortest paths
// between every pair of adjacent vertices on the reference path (the refine
// step, executed in parallel across subgraphs/workers), joins the partial
// paths into candidate k shortest paths in G, and folds them into the running
// result list L.  The search stops once the distance of the k-th path in L is
// no greater than the distance of the next unexplored reference path
// (Theorem 3), which guarantees the result is exact with respect to the
// skeleton's lower bounds.
package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/shortest"
	"kspdg/internal/trace"
)

// Options configures query processing.
type Options struct {
	// MaxIterations caps the number of reference paths examined per query.
	// A query that hits it returns Converged == false.  Zero means 10000.
	MaxIterations int
}

// distEps is the tolerance under which two distances count as equal: the
// Theorem 3 test, the streaming threshold and the join certificate all use it,
// so tied-distance paths are never held back or fetched for.
const distEps = 1e-9

// beamWidth is the number of partial combinations a join first keeps per
// segment of a reference path: max(2k, k+4).  It only sets the join's cost —
// the certificate doubles a sequence's beam whenever a cut combination could
// still beat the k-th result.
func beamWidth(k int) int { return max(2*k, k+4) }

// maxCertifyRounds caps the certificate's deepen-and-join rounds per check.
// Each round at least doubles the K of a pair or the beam of a sequence, so
// the cap bounds a check's extra work at 2^maxCertifyRounds times the first
// fetch; when it fires, the answer is returned with Converged == false.
const maxCertifyRounds = 8

func (o Options) maxIterations() int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return 10000
}

// Result is the answer to one KSP query together with execution statistics.
type Result struct {
	// Paths holds up to k shortest loopless paths in ascending distance.
	Paths []graph.Path
	// Epoch is the index epoch the query ran against (see dtlp.IndexView).
	// All paths and distances are consistent with that epoch's weights.
	Epoch uint64
	// Converged reports whether the result is exact: the search stopped on
	// the Theorem 3 test or on reference-path exhaustion, and the join
	// certificate passed.  A false value means a safety valve fired (the
	// MaxIterations cap or the certificate's round cap): the paths are valid
	// simple s-t paths in ascending distance but possibly not the k shortest,
	// and callers that need exactness must check it.
	Converged bool
	// Iterations is the number of reference paths examined (filter steps).
	Iterations int
	// PairsRefined is the number of distinct adjacent boundary pairs whose
	// partial k shortest paths were computed for this query.
	PairsRefined int
	// CandidatesGenerated counts candidate complete paths produced by joins.
	CandidatesGenerated int
	// Elapsed is the wall-clock processing time of the query.  It is set on
	// every return path, including errors and cancellations.
	Elapsed time.Duration
}

// Engine answers KSP queries using the DTLP index and a PartialProvider for
// the refine step.
type Engine struct {
	index    *dtlp.Index
	provider PartialProvider
	opts     Options
}

// NewEngine creates an engine over the given index.  If provider is nil a
// serial LocalProvider over the index's partition is used.
func NewEngine(index *dtlp.Index, provider PartialProvider, opts Options) *Engine {
	if provider == nil {
		provider = NewLocalProvider(index.Partition(), 0)
	}
	return &Engine{index: index, provider: provider, opts: opts}
}

// Index returns the engine's DTLP index.
func (e *Engine) Index() *dtlp.Index { return e.index }

// QueryViewCtx answers q(s, t) with the given k, returning up to k shortest
// loopless paths from s to t against one epoch view of the index; a nil iv
// means the most recently published epoch.  The whole query — reference path
// generation on the skeleton, endpoint attachment, and the refine step —
// reads the weights frozen in the view, so concurrent index maintenance
// cannot tear the result.  The iteration loop aborts as soon as ctx is done,
// including while a refine request is in flight (the abandoned reply lands in
// a buffered channel, so nothing leaks).  This is what lets a serving layer
// stop burning worker capacity for a client that already hung up or blew its
// deadline.
func (e *Engine) QueryViewCtx(ctx context.Context, iv *dtlp.IndexView, s, t graph.VertexID, k int) (Result, error) {
	return e.queryView(ctx, iv, s, t, k, nil)
}

// StreamView answers the query like QueryViewCtx but additionally emits
// result paths incrementally through yield, in ascending distance order, as
// the search settles them: a path is yielded as soon as Theorem 3's bound
// and the join certificate prove no strictly shorter candidate can appear
// (its distance is at most the next reference path's lower bound, under the
// same epsilon the termination test uses, so tied-distance paths are not held
// back, and no examined reference path hides a shorter one), and the
// remainder is flushed on termination.  The union of yielded paths is
// exactly Result.Paths.  A non-nil error from yield aborts the query with
// that error — a streaming HTTP handler uses this to stop computing for a
// disconnected client.
func (e *Engine) StreamView(ctx context.Context, iv *dtlp.IndexView, s, t graph.VertexID, k int, yield func(graph.Path) error) (Result, error) {
	return e.queryView(ctx, iv, s, t, k, yield)
}

// pairList is one pair's partial paths together with the K they were fetched
// with.  A list shorter than its K holds every path of the pair; a full one
// holds every path shorter than its last entry, and no more.
type pairList struct {
	paths []graph.Path
	k     int
}

// missBound is a lower bound on a path that needs one of this pair's paths
// beyond the list, given firsts, the sum of every pair's first distance along
// the sequence: the list's last distance stands in for its first.  A list
// that is not full misses nothing.
func (pl pairList) missBound(firsts float64) float64 {
	if len(pl.paths) < pl.k {
		return math.Inf(1)
	}
	return firsts - pl.paths[0].Dist + pl.paths[len(pl.paths)-1].Dist
}

// segments loads seq's pair lists from the pair cache into sc.segs and
// returns them with the sum of their first distances.  It returns no lists
// when some pair has no path, for then no path runs under seq at all.
func (sc *engineScratch) segments(seq []graph.VertexID) (segs []pairList, firsts float64) {
	segs = sc.segs[:0]
	for i := 0; i+1 < len(seq); i++ {
		pl := sc.pairCache[PairRequest{A: seq[i], B: seq[i+1]}]
		if len(pl.paths) == 0 {
			sc.segs = segs
			return nil, 0
		}
		segs = append(segs, pl)
		firsts += pl.paths[0].Dist
	}
	sc.segs = segs
	return segs, firsts
}

// examinedSeq is a reference path the query has joined along, kept for the
// join certificate.  bound is a lower bound on every simple path under seq
// that its last join could not produce: one that needs a pair's path beyond
// a full list (at least that list's last entry plus the other pairs' first
// ones), or one that extends a combination the beam cut (at least beamBound).
type examinedSeq struct {
	seq       []graph.VertexID // arena-backed global vertex ids
	beam      int
	beamBound float64
	bound     float64
}

// engineScratch is the pooled per-query working state: the pair cache, the
// examined sequences, the dedup set, the running top-k list, the join
// buffers, and the candidate vertex arena.  Pooling it (plus the arena-backed
// joins) removes nearly all steady-state allocation from the iteration loop.
type engineScratch struct {
	pairCache   map[PairRequest]pairList
	examined    []examinedSeq
	resultSet   graph.PathSet
	list        []graph.Path
	missing     []PairRequest
	missingSeen map[PairRequest]struct{}
	deepen      map[PairRequest]int
	joinCur     []graph.Path
	joinNext    []graph.Path
	segs        []pairList
	seqBuf      []graph.VertexID
	arena       vertexArena
}

var engineScratchPool = sync.Pool{New: func() interface{} {
	return &engineScratch{
		pairCache:   make(map[PairRequest]pairList),
		missingSeen: make(map[PairRequest]struct{}),
		deepen:      make(map[PairRequest]int),
	}
}}

func getEngineScratch() *engineScratch {
	sc := engineScratchPool.Get().(*engineScratch)
	clear(sc.pairCache)
	clear(sc.missingSeen)
	sc.examined = sc.examined[:0]
	sc.resultSet.Reset()
	sc.list = sc.list[:0]
	sc.missing = sc.missing[:0]
	sc.joinCur = sc.joinCur[:0]
	sc.joinNext = sc.joinNext[:0]
	sc.arena.reset()
	return sc
}

// vertexArena hands out vertex-sequence storage for candidate paths in large
// blocks, so the join step's many short-lived candidates stop being
// individual heap allocations.  Arena memory only lives for one query; the
// final result paths are deep-copied out before the scratch is pooled again.
type vertexArena struct {
	blocks [][]graph.VertexID
	cur    int
	off    int
}

const arenaBlockLen = 4096

func (a *vertexArena) reset() { a.cur, a.off = 0, 0 }

func (a *vertexArena) alloc(n int) []graph.VertexID {
	if n > arenaBlockLen {
		return make([]graph.VertexID, n)
	}
	for {
		if a.cur == len(a.blocks) {
			a.blocks = append(a.blocks, make([]graph.VertexID, arenaBlockLen))
		}
		if a.off+n <= arenaBlockLen {
			b := a.blocks[a.cur][a.off : a.off+n : a.off+n]
			a.off += n
			return b
		}
		a.cur++
		a.off = 0
	}
}

// joinSimple concatenates prefix and seg (which must start at prefix's last
// vertex) when the joined path is simple, allocating the joined sequence from
// the arena.  The simplicity test is a quadratic scan — paths are tens of
// vertices, so scanning beats the map the former Concat+IsSimple pair built —
// and it runs before any allocation, so rejected combinations are free.
func joinSimple(a *vertexArena, prefix, seg graph.Path) (graph.Path, bool) {
	pv, sv := prefix.Vertices, seg.Vertices
	if len(pv) == 0 || len(sv) == 0 || pv[len(pv)-1] != sv[0] {
		return graph.Path{}, false
	}
	for _, u := range sv[1:] {
		for _, w := range pv {
			if u == w {
				return graph.Path{}, false
			}
		}
	}
	out := a.alloc(len(pv) + len(sv) - 1)
	copy(out, pv)
	copy(out[len(pv):], sv[1:])
	return graph.Path{Vertices: out, Dist: prefix.Dist + seg.Dist}, true
}

// insertTopK inserts p into the ascending-ordered list, keeping at most k
// entries, and reports whether p entered.  Entries below index frozen are
// settled (already streamed to a client) and are never displaced: an
// epsilon-tied candidate that would sort before them is placed at frozen
// instead, which is sound because ties are interchangeable under the
// multiset-of-lengths contract.
func insertTopK(list []graph.Path, p graph.Path, k, frozen int) ([]graph.Path, bool) {
	pos := sort.Search(len(list), func(i int) bool { return graph.ComparePaths(list[i], p) > 0 })
	if pos < frozen {
		pos = frozen
	}
	if len(list) < k {
		list = append(list, graph.Path{})
		copy(list[pos+1:], list[pos:])
		list[pos] = p
		return list, true
	}
	if pos >= k {
		return list, false
	}
	copy(list[pos+1:k], list[pos:k-1])
	list[pos] = p
	return list, true
}

func (e *Engine) queryView(ctx context.Context, iv *dtlp.IndexView, s, t graph.VertexID, k int, yield func(graph.Path) error) (res Result, err error) {
	start := time.Now()
	// Elapsed is set on every return path — error, cancellation, or success —
	// so latency stats never observe zero-duration queries.
	defer func() { res.Elapsed = time.Since(start) }()
	// qspan is the serve layer's per-query execution span (nil when the query
	// is untraced); per-iteration filter/refine child spans and the
	// termination attributes hang off it.
	qspan := trace.FromContext(ctx)
	if qspan != nil {
		defer func() {
			qspan.SetAttrInt("iterations", int64(res.Iterations))
			qspan.SetAttrInt("pairs_refined", int64(res.PairsRefined))
			qspan.SetAttr("converged", strconv.FormatBool(res.Converged))
		}()
	}
	if iv == nil {
		iv = e.index.CurrentView()
	}
	res = Result{Epoch: iv.Epoch()}
	parent := e.index.Partition().Parent()
	if k <= 0 {
		return res, fmt.Errorf("core: k must be positive, got %d", k)
	}
	n := parent.NumVertices()
	if int(s) < 0 || int(s) >= n || int(t) < 0 || int(t) >= n {
		return res, fmt.Errorf("core: query endpoints (%d,%d) outside [0,%d)", s, t, n)
	}
	// emit forwards a settled path to the streaming observer.  A failed yield
	// on a canceled context reports the cancellation, not the write error it
	// caused downstream — callers (and the serve layer's Canceled counter)
	// care about the root cause.
	emit := func(p graph.Path) error {
		if err := yield(p); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return err
		}
		return nil
	}
	if s == t {
		res.Paths = []graph.Path{{Vertices: []graph.VertexID{s}}}
		res.Converged = true
		if yield != nil {
			if err := emit(res.Paths[0]); err != nil {
				return res, err
			}
		}
		return res, nil
	}

	view, sAug, tAug, toGlobal, err := e.buildAugmentedSkeleton(iv, s, t)
	if err != nil {
		return res, err
	}

	sc := getEngineScratch()
	defer engineScratchPool.Put(sc)

	gen := shortest.NewGenerator(view, sAug, tAug, nil)
	list := sc.list

	ref, ok := gen.Next()
	if !ok {
		// No reference path: s and t are disconnected (also under the
		// skeleton abstraction).  Return an empty (and exact) result.
		res.Converged = true
		return res, nil
	}
	maxIter := e.opts.maxIterations()
	emitted := 0 // settled prefix of list already streamed through yield
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Iterations++
		sc.seqBuf = toGlobal(ref, sc.seqBuf[:0])
		seq := sc.seqBuf
		missing := e.missingPairs(sc, seq)

		// Refine: the request is issued first and the next iteration's filter
		// step (reference-path generation on the skeleton) runs while it is in
		// flight.
		var pending <-chan AsyncPartialReply
		if len(missing) > 0 {
			pending = e.provider.PartialKSPAsyncCtx(ctx, iv, missing, k)
			res.PairsRefined += len(missing)
		}

		// Filter of iteration i+1, overlapped with the in-flight refine of
		// iteration i.
		fspan := qspan.Child("filter")
		fspan.SetAttrInt("iter", int64(iter))
		next, okNext := gen.Next()
		fspan.Finish()

		if pending != nil {
			// The refine span measures only the post-overlap wait: the part of
			// the in-flight refine the filter step could not hide.
			rspan := qspan.Child("refine")
			rspan.SetAttrInt("iter", int64(iter))
			rspan.SetAttrInt("pairs", int64(len(missing)))
			// The wait is cancelable: reply channels are buffered, so an
			// abandoned reply is delivered to nobody and the sender moves on.
			select {
			case reply := <-pending:
				rspan.Finish()
				if reply.Err != nil {
					return res, reply.Err
				}
				for i, pr := range missing {
					sc.pairCache[pr] = pairList{paths: reply.Paths[i], k: k}
				}
			case <-ctx.Done():
				rspan.Finish()
				return res, ctx.Err()
			}
		}

		ex := examinedSeq{seq: sc.arena.alloc(len(seq)), beam: beamWidth(k)}
		copy(ex.seq, seq)
		list = e.join(sc, &ex, list, k, emitted, &res)
		sc.examined = append(sc.examined, ex)

		if !okNext {
			// Every reference path was examined: the search space is
			// exhausted, so the result is exact.
			res.Converged = true
			break
		}
		if len(list) >= k && list[k-1].Dist <= next.Dist+distEps {
			// Theorem 3 termination: the k-th result is at least as short as
			// the next reference path's lower bound.
			res.Converged = true
			break
		}
		if yield != nil && emitted < len(list) && list[emitted].Dist <= next.Dist+distEps {
			// Stream the settled prefix: every future candidate joins along a
			// reference path of lower-bound distance >= next.Dist, so entries
			// at or below that bound (same epsilon as the Theorem 3 test, so
			// tied-distance paths are not held back) can no longer be beaten
			// by a strictly shorter candidate — once the certificate shows
			// that no examined reference path hides one below it either.
			// insertTopK freezes the emitted prefix against epsilon-tied
			// reorderings.
			var hidden float64
			list, hidden, err = e.certify(ctx, iv, sc, list, k, emitted, next.Dist, &res)
			if err != nil {
				return res, err
			}
			for math.IsInf(hidden, 1) && emitted < len(list) && list[emitted].Dist <= next.Dist+distEps {
				if err := emit(list[emitted].Clone()); err != nil {
					return res, err
				}
				emitted++
			}
		}
		ref = next
	}
	if res.Converged {
		// Every exit that claims exactness first certifies the examined
		// reference paths against the k-th result.
		var hidden float64
		list, hidden, err = e.certify(ctx, iv, sc, list, k, emitted, math.Inf(1), &res)
		if err != nil {
			return res, err
		}
		// A finite hidden bound means the round cap fired before the
		// certificate could rule out a shorter path.
		res.Converged = math.IsInf(hidden, 1)
	}
	// The working list is arena/scratch-backed; deep-copy the winners so the
	// scratch can be pooled while the result outlives the query.
	res.Paths = make([]graph.Path, len(list))
	for i, p := range list {
		res.Paths[i] = p.Clone()
	}
	sc.list = list[:0]
	if yield != nil {
		for ; emitted < len(res.Paths); emitted++ {
			if err := emit(res.Paths[emitted]); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// buildAugmentedSkeleton maps the query endpoints onto the skeleton graph,
// attaching non-boundary endpoints per Section 5.3.  It returns the weighted
// view to search, the augmented source/target ids, and a translator from a
// path over augmented ids to global vertex ids (appending into the caller's
// buffer).  All weights — the skeleton MBDs and the attachment lower bounds —
// come from the epoch view.
func (e *Engine) buildAugmentedSkeleton(iv *dtlp.IndexView, s, t graph.VertexID) (graph.WeightedView, graph.VertexID, graph.VertexID, func(graph.Path, []graph.VertexID) []graph.VertexID, error) {
	skel := iv.Skeleton()
	aug := newAugmentedSkeleton(iv.SkeletonWeights())

	nSkel := aug.NumVertices()
	extraGlobal := make([]graph.VertexID, 0, 2) // global id of augmented vertex nSkel+i

	resolve := func(v graph.VertexID, bounds map[graph.VertexID]float64) (graph.VertexID, error) {
		if id, ok := skel.SkelID(v); ok {
			return id, nil
		}
		id := aug.addVertex()
		extraGlobal = append(extraGlobal, v)
		// Attach in vertex order, here and for t: map order would shuffle the
		// arcs from query to query, and with them which of two equally keyed
		// vertices an A* search settles first — so the bits of an answer's
		// Dist, which must be a function of the epoch alone.
		for _, bv := range slices.Sorted(maps.Keys(bounds)) {
			if sb, ok := skel.SkelID(bv); ok && !math.IsInf(bounds[bv], 1) {
				aug.addEdge(id, sb, bounds[bv])
			}
		}
		return id, nil
	}

	sAug, err := resolve(s, iv.BoundaryLowerBounds(s))
	if err != nil {
		return nil, 0, 0, nil, err
	}
	var tAug graph.VertexID
	if id, ok := skel.SkelID(t); ok {
		tAug = id
	} else {
		id := aug.addVertex()
		extraGlobal = append(extraGlobal, t)
		bounds := iv.BoundaryLowerBoundsTo(t)
		for _, bv := range slices.Sorted(maps.Keys(bounds)) {
			if sb, ok := skel.SkelID(bv); ok && !math.IsInf(bounds[bv], 1) {
				// Edge direction boundary -> t for directed graphs; for
				// undirected graphs addEdge installs both directions anyway.
				aug.addEdge(sb, id, bounds[bv])
			}
		}
		tAug = id
	}
	// Two non-boundary endpoints sharing a subgraph additionally need a
	// direct skeleton edge so purely-local answers are reachable.
	if _, sBound := skel.SkelID(s); !sBound {
		if _, tBound := skel.SkelID(t); !tBound {
			if d := iv.WithinSubgraphDistance(s, t); !math.IsInf(d, 1) {
				aug.addEdge(sAug, tAug, d)
			}
		}
	}

	toGlobal := func(p graph.Path, buf []graph.VertexID) []graph.VertexID {
		for _, v := range p.Vertices {
			if int(v) >= nSkel {
				buf = append(buf, extraGlobal[int(v)-nSkel])
			} else {
				buf = append(buf, skel.GlobalID(v))
			}
		}
		return buf
	}
	return aug, sAug, tAug, toGlobal, nil
}

// missingPairs returns the adjacent pairs of the reference sequence whose
// partial k shortest paths are not already in the query-local cache (the
// Section 5.2 reuse optimisation).
// The returned slice is scratch-backed and only valid until the next call.
func (e *Engine) missingPairs(sc *engineScratch, seq []graph.VertexID) []PairRequest {
	missing := sc.missing[:0]
	clear(sc.missingSeen)
	for i := 0; i+1 < len(seq); i++ {
		pr := PairRequest{A: seq[i], B: seq[i+1]}
		if _, dup := sc.missingSeen[pr]; dup {
			continue
		}
		if _, ok := sc.pairCache[pr]; !ok {
			sc.missingSeen[pr] = struct{}{}
			missing = append(missing, pr)
		}
	}
	sc.missing = missing
	return missing
}

// join implements the join half of Algorithm 4 for one examined reference
// path: with every adjacent pair's partial paths already in the scratch pair
// cache, it joins them segment by segment into complete candidate paths from
// s to t, keeping the ex.beam shortest simple combinations per segment, and
// folds the k shortest into list.  It records in ex the bounds the join
// certificate needs (see examinedSeq).  A combination that is not simple is
// dropped for good: every extension of it repeats the same vertex.
func (e *Engine) join(sc *engineScratch, ex *examinedSeq, list []graph.Path, k, emitted int, res *Result) []graph.Path {
	ex.beamBound, ex.bound = math.Inf(1), math.Inf(1)
	segs, firsts := sc.segments(ex.seq)
	if len(segs) == 0 {
		return list
	}
	for _, pl := range segs {
		ex.bound = math.Min(ex.bound, pl.missBound(firsts))
	}

	// The two join buffers are reused across segments and across iterations.
	current := append(sc.joinCur[:0], segs[0].paths...)
	rest := firsts - segs[0].paths[0].Dist // the later segments' first entries
	for _, pl := range segs[1:] {
		rest -= pl.paths[0].Dist
		next := sc.joinNext[:0]
		for _, prefix := range current {
			for _, seg := range pl.paths {
				if joined, ok := joinSimple(&sc.arena, prefix, seg); ok {
					next = append(next, joined)
				}
			}
		}
		// Swap buffers: next becomes current, current's storage is reused
		// for the following segment's combinations.
		sc.joinNext = current
		current = next
		if len(current) == 0 {
			break
		}
		sort.Slice(current, func(a, b int) bool { return graph.ComparePaths(current[a], current[b]) < 0 })
		if len(current) > ex.beam {
			ex.beamBound = math.Min(ex.beamBound, current[ex.beam].Dist+rest)
			current = current[:ex.beam]
		}
	}
	sc.joinCur = current
	ex.bound = math.Min(ex.bound, ex.beamBound)
	res.CandidatesGenerated += len(current)
	for _, c := range current[:min(len(current), k)] {
		if sc.resultSet.Add(c) {
			list, _ = insertTopK(list, c, k, emitted)
		}
	}
	return list
}

// certify is the join certificate: it makes every examined reference path
// prove that it hides no simple path shorter than the threshold — the k-th
// result, or ceiling if that is lower (the streaming threshold) — before an
// answer is claimed exact or a path is streamed.  Theorem 3 covers the
// reference paths not yet examined; a join along an examined one can still
// miss a shorter simple path, because fetching K paths per pair does not
// guarantee a simple combination among them (every fetched path of a pair
// may cross the rest of the sequence) and the beam cuts combinations.  So
// while a sequence's bound is below the threshold, certify re-fetches each
// full pair list whose last entry plus the other pairs' first entries is
// below it at twice its K, batching the pairs into one provider call per K,
// doubles the beam if the beam's bound is below it, and joins again.
// It returns the updated list and +Inf once every sequence is certified, or
// the smallest bound still below the threshold when maxCertifyRounds ran out.
func (e *Engine) certify(ctx context.Context, iv *dtlp.IndexView, sc *engineScratch, list []graph.Path, k, emitted int, ceiling float64, res *Result) ([]graph.Path, float64, error) {
	for round := 0; ; round++ {
		limit := ceiling
		if len(list) >= k {
			limit = math.Min(limit, list[k-1].Dist)
		}
		limit -= distEps
		hidden := math.Inf(1)
		for _, ex := range sc.examined {
			if ex.bound < limit {
				hidden = math.Min(hidden, ex.bound)
			}
		}
		if math.IsInf(hidden, 1) || round == maxCertifyRounds {
			return list, hidden, nil
		}

		clear(sc.deepen)
		var pairs []PairRequest
		for i := range sc.examined {
			ex := &sc.examined[i]
			if ex.bound >= limit {
				continue
			}
			if ex.beamBound < limit {
				ex.beam *= 2
			}
			segs, firsts := sc.segments(ex.seq)
			for j, pl := range segs {
				pr := PairRequest{A: ex.seq[j], B: ex.seq[j+1]}
				if _, dup := sc.deepen[pr]; !dup && pl.missBound(firsts) < limit {
					sc.deepen[pr] = 2 * pl.k
					pairs = append(pairs, pr)
				}
			}
		}
		if len(pairs) > 0 {
			if err := e.refetch(ctx, iv, sc, pairs, res); err != nil {
				return list, 0, err
			}
		}
		for i := range sc.examined {
			if ex := &sc.examined[i]; ex.bound < limit {
				list = e.join(sc, ex, list, k, emitted, res)
			}
		}
	}
}

// refetch requests every pair again at the K certify recorded for it in
// sc.deepen, one provider call per K, and stores the deeper lists in the pair
// cache.  The wait is a refine span of its own.
func (e *Engine) refetch(ctx context.Context, iv *dtlp.IndexView, sc *engineScratch, pairs []PairRequest, res *Result) error {
	rspan := trace.FromContext(ctx).Child("refine")
	defer rspan.Finish()
	rspan.SetAttr("certify", "true")
	rspan.SetAttrInt("pairs", int64(len(pairs)))
	res.PairsRefined += len(pairs)
	slices.SortStableFunc(pairs, func(a, b PairRequest) int { return sc.deepen[a] - sc.deepen[b] })
	var batches [][]PairRequest
	var pending []<-chan AsyncPartialReply
	for len(pairs) > 0 {
		kk, n := sc.deepen[pairs[0]], 1
		for n < len(pairs) && sc.deepen[pairs[n]] == kk {
			n++
		}
		batches = append(batches, pairs[:n])
		pending = append(pending, e.provider.PartialKSPAsyncCtx(ctx, iv, pairs[:n], kk))
		pairs = pairs[n:]
	}
	for i, ch := range pending {
		select {
		case reply := <-ch:
			if reply.Err != nil {
				return reply.Err
			}
			for j, pr := range batches[i] {
				sc.pairCache[pr] = pairList{paths: reply.Paths[j], k: sc.deepen[pr]}
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
