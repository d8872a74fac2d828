package cluster

import (
	"sync"
	"time"
)

// WorkerState is the membership health state of one worker.
type WorkerState int32

const (
	// StateUp: the worker answered its most recent probe or request.
	StateUp WorkerState = iota
	// StateSuspect: enough consecutive failures to route new traffic away,
	// but recent enough success that the worker may just be slow.
	StateSuspect
	// StateDown: the failure streak crossed the down threshold; the worker
	// is only reconsidered when a probe or a failover attempt succeeds.
	StateDown
)

// String returns the state's lower-case name as exposed on /metrics
// (kspd_workers{state="..."}) and in healthz worker counts.
func (s WorkerState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	default:
		return "down"
	}
}

// The failure detector's thresholds: a worker is suspected (routing prefers
// its co-owners) at suspectAfter consecutive failures and declared down at
// downAfter.
const (
	suspectAfter = 1
	downAfter    = 3
)

// MembershipOptions tunes the failure detector.
type MembershipOptions struct {
	// PingEvery enables the background health-check loop: every interval each
	// worker is probed through Ping and the outcome feeds the same suspicion
	// counters the data path feeds.  Zero disables the loop (the data path
	// alone then drives the detector).
	PingEvery time.Duration
	// Ping probes one worker.  Required when PingEvery is set.
	Ping func(worker int) error
}

// Membership is a lightweight phi-less failure detector over a fixed worker
// set: consecutive failures (from health-check pings and from the data path)
// escalate a worker Up → Suspect → Down, and any success instantly restores
// it to Up — a rejoining worker is routed to again as soon as it answers one
// probe.  All methods are safe for concurrent use.
type Membership struct {
	opts MembershipOptions

	mu       sync.Mutex
	failures []int
	states   []WorkerState
	probing  []bool

	stopOnce sync.Once
	stop     chan struct{}
	loop     sync.WaitGroup
}

// NewMembership creates a detector for n workers, all initially Up, and
// starts the background ping loop when MembershipOptions.PingEvery is set.
func NewMembership(n int, opts MembershipOptions) *Membership {
	m := &Membership{
		opts:     opts,
		failures: make([]int, n),
		states:   make([]WorkerState, n),
		probing:  make([]bool, n),
		stop:     make(chan struct{}),
	}
	if m.opts.PingEvery > 0 && m.opts.Ping != nil {
		m.loop.Add(1)
		go m.pingLoop()
	}
	return m
}

// pingLoop probes every worker each interval.  Probes run one goroutine per
// worker with an in-flight guard, so a worker whose probe blocks (e.g. a dial
// timing out) delays neither the other workers nor the next tick.
func (m *Membership) pingLoop() {
	defer m.loop.Done()
	ticker := time.NewTicker(m.opts.PingEvery)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		n := len(m.states)
		for w := 0; w < n; w++ {
			if m.probing[w] {
				continue
			}
			m.probing[w] = true
			m.loop.Add(1)
			go func(w int) {
				defer m.loop.Done()
				err := m.opts.Ping(w)
				m.mu.Lock()
				m.probing[w] = false
				m.mu.Unlock()
				if err != nil {
					m.ReportFailure(w)
				} else {
					m.ReportSuccess(w)
				}
			}(w)
		}
		m.mu.Unlock()
	}
}

// Stop terminates the background ping loop and waits for in-flight probes.
// It is idempotent; a Membership without a ping loop needs no Stop.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.loop.Wait()
}

// ReportSuccess records a successful round-trip with worker w: the failure
// streak clears and the worker is Up again regardless of its previous state.
func (m *Membership) ReportSuccess(w int) {
	m.mu.Lock()
	m.failures[w] = 0
	m.states[w] = StateUp
	m.mu.Unlock()
}

// ReportFailure records a failed probe or request against worker w and
// returns the resulting state.
func (m *Membership) ReportFailure(w int) WorkerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failures[w]++
	switch {
	case m.failures[w] >= downAfter:
		m.states[w] = StateDown
	case m.failures[w] >= suspectAfter:
		m.states[w] = StateSuspect
	}
	return m.states[w]
}

// State returns worker w's current health state.
func (m *Membership) State(w int) WorkerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states[w]
}

// Counts returns the number of workers currently in each state — the shape
// an observability endpoint exports (workers{state="up"} etc.) without
// enumerating workers per scrape.
func (m *Membership) Counts() (up, suspect, down int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.states {
		switch st {
		case StateUp:
			up++
		case StateSuspect:
			suspect++
		default:
			down++
		}
	}
	return up, suspect, down
}

// Snapshot returns every worker's state, indexed by worker.
func (m *Membership) Snapshot() []WorkerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerState, len(m.states))
	copy(out, m.states)
	return out
}
