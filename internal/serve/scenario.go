package serve

import (
	"context"
	"sync"
	"time"

	"kspdg/internal/core"
	"kspdg/internal/workload"
)

// ScenarioResult pairs one query of a mixed scenario with its outcome.
type ScenarioResult struct {
	Query  workload.Query
	Result core.Result
	Err    error
}

// ScenarioReport summarises a mixed scenario execution.
type ScenarioReport struct {
	// Results holds one entry per query event, in event order.
	Results []ScenarioResult
	// BatchesApplied counts the update batches applied.
	BatchesApplied int
	// TopologyApplied counts the topology batches applied.
	TopologyApplied int
	// ChaosInjected counts the fault injections executed through
	// Options.Chaos.
	ChaosInjected int
	// Elapsed is the wall-clock time of the whole run.
	Elapsed time.Duration
}

// Errs returns the errors of failed queries.
func (r ScenarioReport) Errs() []error {
	var errs []error
	for _, qr := range r.Results {
		if qr.Err != nil {
			errs = append(errs, qr.Err)
		}
	}
	return errs
}

// RunScenario replays a mixed query/update scenario against the server.
// Queries are submitted asynchronously — each on its own goroutine, holding
// one of the server's Workers slots while it runs, and may overlap any number
// of later events — while update batches are applied inline in event order,
// so weight changes land while earlier queries are still in flight.  This is
// the concurrent path a production deployment exercises: RunScenario returns
// only after every query has completed and every batch has been applied.
func (s *Server) RunScenario(sc workload.MixedScenario) (ScenarioReport, error) {
	ctx := context.TODO()
	start := time.Now()
	report := ScenarioReport{Results: make([]ScenarioResult, sc.NumQueries())}
	var wg sync.WaitGroup
	qi := 0
	for _, ev := range sc.Events {
		if ev.Query != nil {
			q := *ev.Query
			slot := qi
			qi++
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.Query(ctx, Request{Src: q.Source, Dst: q.Target, K: sc.K})
				report.Results[slot] = ScenarioResult{Query: q, Result: res, Err: err}
			}()
			continue
		}
		if len(ev.Updates) > 0 {
			if _, err := s.ApplyUpdates(ctx, ev.Updates); err != nil {
				wg.Wait()
				report.Elapsed = time.Since(start)
				return report, err
			}
			report.BatchesApplied++
			continue
		}
		if ev.Topology != nil {
			// Topology batches apply inline like weight batches: in-flight
			// queries keep their pinned pre-mutation epoch while the next
			// epoch's structure changes underneath them.
			if _, err := s.ApplyTopology(ctx, *ev.Topology); err != nil {
				wg.Wait()
				report.Elapsed = time.Since(start)
				return report, err
			}
			report.TopologyApplied++
			continue
		}
		if ev.Chaos != nil && s.opts.Chaos != nil {
			// Faults are injected inline, like updates: earlier queries may
			// still be in flight when the worker dies — that overlap is the
			// point of a chaos scenario.
			if err := s.opts.Chaos(*ev.Chaos); err != nil {
				wg.Wait()
				report.Elapsed = time.Since(start)
				return report, err
			}
			report.ChaosInjected++
		}
	}
	wg.Wait()
	report.Elapsed = time.Since(start)
	return report, nil
}
