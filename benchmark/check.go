package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/graph"
	"kspdg/internal/shortest"
	"kspdg/internal/store"
)

// distTol is the repository's own rule for "the same distance" (difftest).
const distTol = 1e-9

// verdict is the outcome of checking a run's answers.
type verdict struct {
	Answers int // 200 answers checked
	Exact   int // of those, equal to Yen on the weights of the reported epoch
	// OracleMs holds the duration of every whole-graph Yen call: the
	// centralised baseline on the same queries.
	OracleMs []float64
}

// checkAnswers validates every 200 answer of the laps.  A malformed answer —
// a path that is not a simple source-to-target walk over existing edges,
// distances out of order, more than k paths, an epoch the benchmark never
// saw acknowledged — is an error and fails the run.  Whether the answer is
// the right one is the metric exact_share: its distances must equal Yen's on
// the weights of the epoch it reports, and each must be the length of its
// own path there.  The weights of an epoch are rebuilt from the batches the
// gateway acknowledged, on the benchmark's own copy of the graph.
func (dr *driver) checkAnswers(laps []lap) (verdict, error) {
	ds, err := roadNetwork()
	if err != nil {
		return verdict{}, err
	}
	g := ds.Graph

	type item struct {
		q query
		a *answer
	}
	byEpoch := make(map[uint64][]item)
	for _, l := range laps {
		for _, s := range l.Samples {
			if s.Answer != nil {
				e := s.Answer.Epoch
				byEpoch[e] = append(byEpoch[e], item{l.Events[s.Event].Q, s.Answer})
			}
		}
	}
	dr.mu.Lock()
	last := uint64(len(dr.applied))
	applied := dr.applied
	dr.mu.Unlock()
	for e := range byEpoch {
		if e > last {
			return verdict{}, fmt.Errorf("an answer reports epoch %d, but only %d batches were acknowledged", e, last)
		}
	}

	var v verdict
	var mu sync.Mutex
	var firstErr error
	for e := uint64(1); e <= last; e++ {
		batch, ok := applied[e]
		if !ok {
			return verdict{}, fmt.Errorf("no acknowledged batch for epoch %d of %d", e, last)
		}
		if err := g.ApplyUpdates(batch); err != nil {
			return verdict{}, err
		}
		items := byEpoch[e]
		if len(items) == 0 {
			continue
		}
		snap := g.Snapshot()
		var wg sync.WaitGroup
		for c := 0; c < closedClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; i < len(items); i += closedClients {
					it := items[i]
					err := validate(snap, it.q, dr.w.K, it.a)
					t := time.Now()
					want := shortest.Yen(snap, it.q.S, it.q.T, dr.w.K, nil)
					ms := float64(time.Since(t)) / float64(time.Millisecond)
					exact := err == nil && sameAsOracle(snap, it.a, want)
					mu.Lock()
					v.Answers++
					v.OracleMs = append(v.OracleMs, ms)
					if exact {
						v.Exact++
					}
					if err != nil && firstErr == nil {
						firstErr = fmt.Errorf("query (%d,%d,k=%d) at epoch %d: %w", it.q.S, it.q.T, dr.w.K, e, err)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	return v, firstErr
}

// validate checks the shape of one answer.
func validate(v graph.WeightedView, q query, k int, a *answer) error {
	if len(a.Paths) == 0 || len(a.Paths) > k {
		return fmt.Errorf("%d paths for k=%d", len(a.Paths), k)
	}
	prev := math.Inf(-1)
	for i, p := range a.Paths {
		path := graph.Path{Vertices: p.Vertices, Dist: p.Distance}
		if len(p.Vertices) < 2 || path.Source() != q.S || path.Target() != q.T {
			return fmt.Errorf("path %d does not lead from source to target: %v", i, p.Vertices)
		}
		if err := path.Validate(v); err != nil {
			return fmt.Errorf("path %d: %w", i, err)
		}
		if p.Distance < prev-distTol {
			return fmt.Errorf("path %d: distance %v after %v", i, p.Distance, prev)
		}
		prev = p.Distance
	}
	return nil
}

// sameAsOracle reports whether the answer's distances are Yen's and each is
// the length of its own path under the same weights.
func sameAsOracle(v graph.WeightedView, a *answer, want []graph.Path) bool {
	if len(a.Paths) != len(want) {
		return false
	}
	for i, p := range a.Paths {
		length := graph.Path{Vertices: p.Vertices}.EvalDist(v)
		if math.Abs(p.Distance-want[i].Dist) > distTol || math.Abs(p.Distance-length) > distTol {
			return false
		}
	}
	return true
}

// recovery is the outcome of recovering the data directory after the laps.
type recovery struct {
	Seconds  float64 // median over recoverRepeats recoveries
	Replayed int
}

// recoverRepeats is how often the directory is recovered: recovery reads
// only, so it can be repeated, and one sample cannot carry a median.
const recoverRepeats = 5

// recoverAndCheck closes the store, recovers the directory the way a
// restarted master would, and fails unless the recovered epoch is the last
// one acknowledged and sampled queries answer on the recovered index exactly
// as on the live one.
func (dr *driver) recoverAndCheck() (recovery, error) {
	d := dr.d
	if err := d.store.Close(); err != nil {
		return recovery{}, err
	}
	var rec *store.Recovered
	var seconds []float64
	for i := 0; i < recoverRepeats; i++ {
		t := time.Now()
		var err error
		if rec, err = d.store.Recover(); err != nil {
			return recovery{}, fmt.Errorf("recovering %s: %w", d.dir, err)
		}
		seconds = append(seconds, time.Since(t).Seconds())
	}
	out := recovery{Seconds: median(seconds), Replayed: rec.ReplayedBatches}
	dr.mu.Lock()
	last := uint64(len(dr.applied))
	dr.mu.Unlock()
	if rec.Epoch != last {
		return out, fmt.Errorf("recovered epoch %d, last acknowledged epoch %d", rec.Epoch, last)
	}
	live := core.NewEngine(d.index, core.NewLocalProvider(d.index.Partition(), 0), core.Options{})
	cold := core.NewEngine(rec.Index, core.NewLocalProvider(rec.Partition, 0), core.Options{})
	n := 0
	for _, e := range dr.s.Laps[0] {
		if e.Update >= 0 {
			continue
		}
		if n++; n > 50 {
			break
		}
		a, err := live.QueryViewCtx(context.Background(), d.index.CurrentView(), e.Q.S, e.Q.T, dr.w.K)
		if err != nil {
			return out, err
		}
		b, err := cold.QueryViewCtx(context.Background(), rec.Index.CurrentView(), e.Q.S, e.Q.T, dr.w.K)
		if err != nil {
			return out, err
		}
		if !samePaths(a.Paths, b.Paths) {
			return out, fmt.Errorf("query (%d,%d) answers differently on the recovered index", e.Q.S, e.Q.T)
		}
	}
	return out, nil
}

func samePaths(a, b []graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// quantile is the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// median sorts xs and returns its median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
