package main

import (
	"sync"
	"time"
)

// ledger accumulates what the traced run sees at the layer boundaries: every
// finished span by name (from trace.Options.OnSpanFinish) and the durations
// the benchmark's own decorators and hooks time.  It lives in memory until
// the run ends.
type ledger struct {
	mu    sync.Mutex
	spans map[string]*spanSum

	rounds     []time.Duration // decorated provider calls, one per refine round
	roundPairs int64
	rpc        []time.Duration // rpcbatch.Options.Observe, one per shipped batch
	broadcast  []time.Duration // the Broadcast closure, one per update batch
	walAppend  []time.Duration // Persister.AppendBatch, one per update batch
}

type spanSum struct {
	Total time.Duration
	Count int64
}

func newLedger() *ledger { return &ledger{spans: make(map[string]*spanSum)} }

func (l *ledger) spanFinished(name string, d time.Duration) {
	l.mu.Lock()
	s := l.spans[name]
	if s == nil {
		s = &spanSum{}
		l.spans[name] = s
	}
	s.Total += d
	s.Count++
	l.mu.Unlock()
}

func (l *ledger) add(dst *[]time.Duration, d time.Duration) {
	l.mu.Lock()
	*dst = append(*dst, d)
	l.mu.Unlock()
}

func (l *ledger) round(d time.Duration, pairs int) {
	l.mu.Lock()
	l.rounds = append(l.rounds, d)
	l.roundPairs += int64(pairs)
	l.mu.Unlock()
}

func (l *ledger) observeRPC(_ int, d time.Duration) { l.add(&l.rpc, d) }

// reset forgets what warm-up recorded, so the ledger covers the laps only.
func (l *ledger) reset() {
	l.mu.Lock()
	l.spans = make(map[string]*spanSum)
	l.rounds, l.roundPairs, l.rpc, l.broadcast, l.walAppend = nil, 0, nil, nil, nil
	l.mu.Unlock()
}

// totals returns a copy of the span sums by name.
func (l *ledger) totals() map[string]spanSum {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]spanSum, len(l.spans))
	for name, s := range l.spans {
		out[name] = *s
	}
	return out
}

// span returns the summed duration in milliseconds and the count of the
// spans with the given name.
func (l *ledger) span(name string) (ms float64, count float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.spans[name]; s != nil {
		return float64(s.Total) / float64(time.Millisecond), float64(s.Count)
	}
	return 0, 0
}
