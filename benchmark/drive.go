package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kspdg/internal/graph"
)

// answer is the part of a 200 /v1/ksp body the benchmark checks.
type answer struct {
	Paths []struct {
		Vertices []graph.VertexID `json:"vertices"`
		Distance float64          `json:"distance"`
	} `json:"paths"`
	Epoch      uint64 `json:"epoch"`
	Iterations int    `json:"iterations"`
}

// sample is the outcome of one event.  Times count from the start of the
// lap.  Due is when an open loop's event was scheduled; on a closed loop it
// equals Sent.  Status is 0 when the request failed below HTTP.
type sample struct {
	Event           int
	Due, Sent, Done time.Duration
	Status          int
	Answer          *answer // 200 queries only
}

func (s sample) withinSLO() bool {
	return s.Status == http.StatusOK && s.Done-s.Due <= sloMs*time.Millisecond
}

// lap is one replay of the event list with what the process spent on it.
type lap struct {
	Events     []event
	Wall, CPU  time.Duration
	StealShare float64
	Samples    []sample
	Mallocs    uint64
	AllocBytes uint64
	GCCPU      float64 // seconds
}

// driver replays a schedule against a deployment over HTTP and remembers
// every batch the gateway acknowledged with the epoch it reported, which is
// what lets the answers be checked against the weights of their own epoch.
type driver struct {
	w      workloadSpec
	s      schedule
	d      *deployment
	client *http.Client

	batchBodies [][]byte // per schedule batch
	burstBodies [][]byte // per burst batch
	nextLap     int      // index into s.Laps of the next lap to run
	// burstMs holds the round trip of every burst batch posted so far.
	burstMs []float64

	mu      sync.Mutex
	applied map[uint64][]graph.WeightUpdate
	updErr  error
}

func newDriver(w workloadSpec, s schedule, d *deployment) *driver {
	dr := &driver{
		w: w, s: s, d: d,
		// The default transport keeps two idle connections per host, fewer
		// than an open loop has requests in flight.
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		applied: make(map[uint64][]graph.WeightUpdate),
	}
	for _, b := range s.Batches {
		dr.batchBodies = append(dr.batchBodies, batchBody(b))
	}
	for _, b := range s.Burst {
		dr.burstBodies = append(dr.burstBodies, batchBody(b))
	}
	return dr
}

func (dr *driver) close() { dr.client.CloseIdleConnections() }

func queryBody(q query, k int) []byte {
	return []byte(fmt.Sprintf(`{"source":%d,"target":%d,"k":%d}`, q.S, q.T, k))
}

func batchBody(batch []graph.WeightUpdate) []byte {
	type update struct {
		Edge   graph.EdgeID `json:"edge"`
		Weight float64      `json:"weight"`
	}
	req := struct {
		Updates []update `json:"updates"`
	}{Updates: make([]update, len(batch))}
	for i, u := range batch {
		req.Updates[i] = update{u.Edge, u.NewWeight}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // finite floats and integers always encode
	}
	return body
}

func (dr *driver) post(path string, body []byte, timeoutMs int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, dr.d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if timeoutMs > 0 {
		req.Header.Set("Request-Timeout-Ms", strconv.Itoa(timeoutMs))
	}
	resp, err := dr.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// postQuery sends one query.  A transport error is an outcome (status 0),
// not the end of the run.
func (dr *driver) postQuery(q query) (int, *answer) {
	status, out, err := dr.post("/v1/ksp", queryBody(q, dr.w.K), timeoutMs)
	if err != nil || status != http.StatusOK {
		return status, nil
	}
	a := new(answer)
	if err := json.Unmarshal(out, a); err != nil {
		return 0, nil
	}
	return status, a
}

// postUpdate sends one batch and records the epoch it was acknowledged
// under.  A batch that is not applied ends the run: the weights the answers
// are checked against would no longer be known.
func (dr *driver) postUpdate(batch []graph.WeightUpdate, body []byte) int {
	status, out, err := dr.post("/v1/updates", body, 0)
	var ack struct {
		Epoch uint64 `json:"epoch"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(out, &ack)
	} else if err == nil {
		err = fmt.Errorf("/v1/updates answered %d: %s", status, bytes.TrimSpace(out))
	}
	dr.mu.Lock()
	defer dr.mu.Unlock()
	if err != nil {
		if dr.updErr == nil {
			dr.updErr = err
		}
		return status
	}
	dr.applied[ack.Epoch] = batch
	return status
}

func (dr *driver) update(batch []graph.WeightUpdate) error {
	dr.postUpdate(batch, batchBody(batch))
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return dr.updErr
}

// warmUp brings the system to the regime the laps measure.
func (dr *driver) warmUp() error {
	if err := dr.update(dr.s.WarmBatch); err != nil {
		return err
	}
	for _, q := range dr.s.WarmQueries {
		dr.postQuery(q)
	}
	if err := dr.update(dr.s.SettleBatch); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

func (dr *driver) fire(i int, e event, start time.Time) sample {
	smp := sample{Event: i, Sent: time.Since(start)}
	smp.Due = smp.Sent
	if dr.w.Open {
		smp.Due = e.At
	}
	if e.Update >= 0 {
		smp.Status = dr.postUpdate(dr.s.Batches[e.Update], dr.batchBodies[e.Update])
	} else {
		smp.Status, smp.Answer = dr.postQuery(e.Q)
	}
	smp.Done = time.Since(start)
	return smp
}

// runLap posts the lap batch, then replays the next lap's event list and
// reports what it cost.
func (dr *driver) runLap() (lap, error) {
	if err := dr.update(dr.s.LapBatch); err != nil {
		return lap{}, err
	}
	l := lap{Events: dr.s.Laps[dr.nextLap]}
	dr.nextLap++
	l.Samples = make([]sample, len(l.Events))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, steal0, cpu0 := gcCPUSeconds(), stealTicks(), processCPU()
	start := time.Now()

	var wg sync.WaitGroup
	if dr.w.Open {
		// One dispatcher sleeps to each due time; a slow answer delays
		// nothing but itself.
		for i, e := range l.Events {
			if wait := e.At - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.Samples[i] = dr.fire(i, e, start)
			}()
		}
	} else {
		var cursor atomic.Int64
		for c := 0; c < closedClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(l.Events) {
						return
					}
					l.Samples[i] = dr.fire(i, l.Events[i], start)
				}
			}()
		}
	}
	wg.Wait()

	l.Wall = time.Since(start)
	l.CPU = processCPU() - cpu0
	l.StealShare = float64(stealTicks()-steal0) / 100 / (float64(runtime.NumCPU()) * l.Wall.Seconds())
	l.GCCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	l.Mallocs, l.AllocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return l, dr.updErr
}

// burst posts the schedule's burst batches one after another on the idle
// system, records each round trip in burstMs, and then puts every weight it
// moved back with one untimed batch: the laps around a burst run on the
// weights they would have met without it, and every burst of a run does the
// same work from the same state as far as the laps leave it the same.
func (dr *driver) burst() error {
	before := dr.weightsNow()
	runtime.GC() // the last lap's answers are still held; start from a collected heap
	for i, b := range dr.s.Burst {
		t := time.Now()
		dr.postUpdate(b, dr.burstBodies[i])
		dr.burstMs = append(dr.burstMs, float64(time.Since(t))/float64(time.Millisecond))
	}
	var restore []graph.WeightUpdate
	moved := make(map[graph.EdgeID]bool)
	for _, b := range dr.s.Burst {
		for _, u := range b {
			if !moved[u.Edge] {
				moved[u.Edge] = true
				restore = append(restore, graph.WeightUpdate{Edge: u.Edge, NewWeight: before[u.Edge]})
			}
		}
	}
	return dr.update(restore)
}

// weightsNow returns the weight of every edge: the build-time weights with
// every acknowledged batch applied in epoch order.
func (dr *driver) weightsNow() []float64 {
	g := dr.d.graph
	weights := make([]float64, g.NumEdges())
	for e := range weights {
		weights[e] = g.InitialWeight(graph.EdgeID(e))
	}
	dr.mu.Lock()
	defer dr.mu.Unlock()
	for epoch := uint64(1); epoch <= uint64(len(dr.applied)); epoch++ {
		for _, u := range dr.applied[epoch] {
			weights[u.Edge] = u.NewWeight
		}
	}
	return weights
}

// measure runs laps until n of them are clean, or n+extraLaps have run.  A
// lap is dirty when the hypervisor took more than stealLimit of the CPU time
// the guest was entitled to during it; nothing else about a lap decides
// whether it counts.  With bursts, a burst of update batches is posted before
// the first lap and after every lap, so that update_ms_p50 samples the whole
// run and not one second of it: the speed of a shared host drifts from second
// to second, and a single burst caught one state of it.
func (dr *driver) measure(n int, bursts bool) ([]lap, error) {
	var laps []lap
	clean := 0
	if bursts {
		if err := dr.burst(); err != nil {
			return nil, err
		}
	}
	for len(laps) < n+extraLaps && clean < n {
		l, err := dr.runLap()
		if err != nil {
			return nil, err
		}
		laps = append(laps, l)
		if l.StealShare <= stealLimit {
			clean++
		}
		if bursts {
			if err := dr.burst(); err != nil {
				return nil, err
			}
		}
	}
	return laps, nil
}

// cleanLaps returns the laps the medians use: the clean ones when there are
// at least two, otherwise all of them.
func cleanLaps(laps []lap) []lap {
	var clean []lap
	for _, l := range laps {
		if l.StealShare <= stealLimit {
			clean = append(clean, l)
		}
	}
	if len(clean) >= 2 {
		return clean
	}
	return laps
}

// processCPU is the user and system time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the steal column of the aggregate cpu line of /proc/stat
// (USER_HZ ticks, 100 per second): time the hypervisor ran something else
// while this guest had work.  Where there is no such file nothing is stolen.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(fields[8], 10, 64)
	return n
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
