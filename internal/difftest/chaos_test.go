package difftest

import (
	"testing"
	"time"

	"kspdg/internal/workload"
)

// TestDifferentialChaosKillWorker is the kill-worker chaos lane: with
// replication factor 2, a worker dying mid-workload must lose zero queries
// and every returned path set must still match exact Yen at the epoch each
// query reports.
func TestDifferentialChaosKillWorker(t *testing.T) {
	t.Run("kill", func(t *testing.T) {
		CheckChaos(t, ChaosParams{Seed: 75, Victim: 0})
	})
	t.Run("kill-and-rejoin", func(t *testing.T) {
		CheckChaos(t, ChaosParams{Seed: 72, Victim: 1, Restart: true})
	})
	t.Run("directed-hedged", func(t *testing.T) {
		if testing.Short() {
			t.Skip("hedged directed chaos cell runs in the full lane")
		}
		CheckChaos(t, ChaosParams{Seed: 73, Victim: 0, Directed: true, Restart: true, HedgeAfter: 3 * time.Millisecond})
	})
}

// NumChaosEvents returns the number of fault-injection steps.
func (sc ChaosScenario) NumChaosEvents() int {
	n := 0
	for _, st := range sc {
		if st.Chaos != nil {
			n++
		}
	}
	return n
}

func TestInjectChaos(t *testing.T) {
	ds, err := workload.BuiltinDataset("NY", workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.GenerateMixed(ds.Graph, 12, 2, 3, 0.2, 0.3, 7)

	chaotic := InjectChaos(sc, 1, 4, 8)
	if got := chaotic.NumChaosEvents(); got != 2 {
		t.Fatalf("chaos events %d, want kill + restart", got)
	}
	if len(chaotic) != len(sc.Events)+2 {
		t.Fatalf("chaos injection made %d steps of %d events", len(chaotic), len(sc.Events))
	}
	// The scenario's events come through in order, the kill precedes the
	// restart, both target worker 1, and they sit at the requested positions
	// of the query stream.
	queries, events, sawKill, sawRestart := 0, 0, 0, 0
	for _, st := range chaotic {
		if st.Chaos == nil {
			if ev := sc.Events[events]; st.Query != ev.Query || len(st.Updates) != len(ev.Updates) {
				t.Fatalf("step for event %d is not that event", events)
			}
			events++
			if st.Query != nil {
				queries++
			}
			continue
		}
		if st.Chaos.Worker != 1 {
			t.Errorf("chaos targets worker %d, want 1", st.Chaos.Worker)
		}
		switch st.Chaos.Action {
		case ChaosKillWorker:
			sawKill++
			if sawRestart > 0 {
				t.Error("kill after restart")
			}
			if queries != 4 {
				t.Errorf("kill after %d queries, want 4", queries)
			}
		case ChaosRestartWorker:
			sawRestart++
			if queries != 8 {
				t.Errorf("restart after %d queries, want 8", queries)
			}
		}
	}
	if sawKill != 1 || sawRestart != 1 {
		t.Fatalf("saw %d kills and %d restarts, want 1 and 1", sawKill, sawRestart)
	}

	// Kill-only (no restart position): exactly one chaos event.
	killOnly := InjectChaos(sc, 0, 6, 0)
	if got := killOnly.NumChaosEvents(); got != 1 {
		t.Fatalf("kill-only chaos events %d, want 1", got)
	}

	// Positions beyond the stream clamp to the end instead of dropping.
	clamped := InjectChaos(sc, 0, 1000, 2000)
	if got := clamped.NumChaosEvents(); got != 2 {
		t.Fatalf("clamped chaos events %d, want 2", got)
	}
}

func TestChaosActionString(t *testing.T) {
	if ChaosKillWorker.String() != "kill" || ChaosRestartWorker.String() != "restart" {
		t.Fatalf("chaos action names: %q %q", ChaosKillWorker, ChaosRestartWorker)
	}
}
