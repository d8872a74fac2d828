package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestMembershipEscalation walks one worker through the detector's
// thresholds: up below suspectAfter consecutive failures, suspect from
// suspectAfter, down from downAfter, and up again on one success.
func TestMembershipEscalation(t *testing.T) {
	if suspectAfter != 1 || downAfter != 3 {
		t.Fatalf("thresholds %d/%d, want 1/3", suspectAfter, downAfter)
	}
	m := NewMembership(2, MembershipOptions{})
	defer m.Stop()
	for failures := 0; failures <= downAfter; failures++ {
		want := StateUp
		switch {
		case failures >= downAfter:
			want = StateDown
		case failures >= suspectAfter:
			want = StateSuspect
		}
		if got := m.State(0); got != want {
			t.Fatalf("after %d failures: %v, want %v", failures, got, want)
		}
		m.ReportFailure(0)
	}
	// Worker 1's counters are independent.
	if got := m.State(1); got != StateUp {
		t.Fatalf("worker 1 state %v, want up", got)
	}
	// One success fully restores the worker, and the streak restarts.
	m.ReportSuccess(0)
	if got := m.State(0); got != StateUp {
		t.Fatalf("after success: %v, want up", got)
	}
	if got := m.ReportFailure(0); got != StateSuspect {
		t.Fatalf("1 failure after recovery: %v, want suspect", got)
	}
}

func TestMembershipPingLoopDrivesStates(t *testing.T) {
	var healthy atomic.Bool
	m := NewMembership(2, MembershipOptions{
		PingEvery: 2 * time.Millisecond,
		Ping: func(w int) error {
			if w == 1 && !healthy.Load() {
				return errors.New("injected ping failure")
			}
			return nil
		},
	})
	defer m.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for m.State(1) != StateDown {
		if time.Now().After(deadline) {
			t.Fatalf("worker 1 never went down; states %v", m.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if got := m.State(0); got != StateUp {
		t.Fatalf("worker 0 state %v, want up", got)
	}

	// The worker rejoins: the next successful probe restores it.
	healthy.Store(true)
	for m.State(1) != StateUp {
		if time.Now().After(deadline) {
			t.Fatalf("worker 1 never rejoined; states %v", m.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMembershipStopIsIdempotent(t *testing.T) {
	m := NewMembership(1, MembershipOptions{PingEvery: time.Millisecond, Ping: func(int) error { return nil }})
	m.Stop()
	m.Stop()
	mNoLoop := NewMembership(1, MembershipOptions{})
	mNoLoop.Stop()
}

func TestWorkerStateString(t *testing.T) {
	for state, want := range map[WorkerState]string{StateUp: "up", StateSuspect: "suspect", StateDown: "down"} {
		if got := state.String(); got != want {
			t.Errorf("state %d: %q, want %q", state, got, want)
		}
	}
}
