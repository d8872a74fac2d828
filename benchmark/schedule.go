package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"time"

	"kspdg/internal/graph"
	"kspdg/internal/workload"
)

type query struct{ S, T graph.VertexID }

// event is one step of a lap.  Update is an index into schedule.Batches, or
// -1 for a query.  At is when an open loop's event is due, counted from the
// start of the lap; closed loops ignore it.
type event struct {
	At     time.Duration
	Update int
	Q      query
}

// schedule is everything a run feeds the system, generated from the seed
// before the deployment exists.  Batches are derived from the build-time
// weights (mean-reverting traffic) and are the same in every lap, so after the
// first lap the weights at each position of a lap repeat and laps are
// replicas of one another in everything but the order of their trips.
type schedule struct {
	// Warm-up: an alpha = 1 batch moves every edge off its build-time weight
	// (the stationary regime of a dynamic road network), then WarmQueries,
	// then one ordinary batch.
	WarmBatch   []graph.WeightUpdate
	WarmQueries []query
	SettleBatch []graph.WeightUpdate
	// LapBatch is posted before each lap starts its clock, so every lap
	// begins with a cold result cache.
	LapBatch []graph.WeightUpdate
	Batches  [][]graph.WeightUpdate
	// Laps holds one event list per lap: the same trips and the same
	// batches at the same positions, the trips in an order of the lap's own.
	Laps [][]event
	// Burst is posted one batch after another around every lap, the weights
	// put back each time; it is where update_ms_p50 comes from.
	Burst [][]graph.WeightUpdate
}

func roadNetwork() (*workload.Dataset, error) {
	return workload.Generate(workload.RoadNetworkSpec{
		Width: gridWidth, Height: gridHeight,
		DiagonalFraction: 0.15, MissingFraction: 0.25,
		MinWeight: 1, MaxWeight: 10, Seed: networkSeed,
	})
}

// near draws a vertex within Chebyshev distance r of v on the grid, other
// than v itself (vertex id = y*gridWidth + x).
func near(rng *rand.Rand, v graph.VertexID, r int) graph.VertexID {
	x, y := int(v)%gridWidth, int(v)/gridWidth
	for {
		nx := min(max(x+rng.Intn(2*r+1)-r, 0), gridWidth-1)
		ny := min(max(y+rng.Intn(2*r+1)-r, 0), gridHeight-1)
		if nx != x || ny != y {
			return graph.VertexID(ny*gridWidth + nx)
		}
	}
}

// buildSchedule generates the inputs of a run of the given number of laps.
func buildSchedule(w workloadSpec, g *graph.Graph, seed int64, laps int) schedule {
	// The trips and the traffic are fixed, like the network; the seed decides
	// the order the trips are asked in and, on open loops, when.  A query's
	// cost is heavy-tailed on this system: most trips take a handful of
	// filter/refine iterations, one in a hundred takes a hundred, and a few
	// run into the 10000-iteration cap and take seconds.  A fresh draw of a
	// thousand trips, or of the weights they run on, moves throughput by a
	// fifth and would drown every bound in spec.go; the workload's TripSeed is
	// a draw without a trip the system cannot answer inside its deadline.
	// One stream per concern, so that the number of queries does not change
	// the batches and the other way round.
	fixed := func(n int64) *rand.Rand { return rand.New(rand.NewSource(w.TripSeed*7919 + n)) }
	qrng := fixed(1)
	n := gridWidth * gridHeight
	hubs := make([]graph.VertexID, w.Hubs)
	for i := range hubs {
		hubs[i] = graph.VertexID(qrng.Intn(n))
	}
	draw := func() query {
		if len(hubs) > 0 {
			t := hubs[qrng.Intn(len(hubs))]
			return query{S: near(qrng, t, w.R), T: t}
		}
		s := graph.VertexID(qrng.Intn(n))
		return query{S: s, T: near(qrng, s, w.R)}
	}
	batch := func(tm *workload.TrafficModel) []graph.WeightUpdate {
		return tm.Derive(g.NumEdges(), false, g.InitialWeight)
	}

	var s schedule
	s.WarmBatch = batch(workload.NewTrafficModel(1.0, trafficTau, w.TripSeed*7919+2))
	for i := 0; i < warmQueries; i++ {
		s.WarmQueries = append(s.WarmQueries, draw())
	}
	tm := workload.NewTrafficModel(w.Alpha, trafficTau, w.TripSeed*7919+3)
	s.SettleBatch = batch(tm)
	s.LapBatch = batch(tm)
	trips := make([]query, w.LapQueries)
	for i := range trips {
		trips[i] = draw()
	}
	// The batches of a lap: before every UpdateEvery-th position of a closed
	// loop, every UpdateInterval of an open one.
	numBatches := (w.LapQueries - 1) / max(w.UpdateEvery, 1)
	var lapTime time.Duration
	if w.Open {
		lapTime = time.Duration(float64(w.LapQueries) / w.Rate * float64(time.Second))
		numBatches = int((lapTime - 1) / w.UpdateInterval)
	}
	for i := 0; i < numBatches; i++ {
		s.Batches = append(s.Batches, batch(tm))
	}
	for i := 0; i < burstBatches; i++ {
		s.Burst = append(s.Burst, batch(tm))
	}

	srng := rand.New(rand.NewSource(seed))
	for lap := 0; lap < laps; lap++ {
		srng.Shuffle(len(trips), func(i, j int) { trips[i], trips[j] = trips[j], trips[i] })
		var events []event
		if !w.Open {
			for i, q := range trips {
				if i > 0 && i%w.UpdateEvery == 0 {
					events = append(events, event{Update: i/w.UpdateEvery - 1})
				}
				events = append(events, event{Update: -1, Q: q})
			}
		} else {
			// Poisson arrivals, stretched so that the last one is due after
			// exactly LapQueries/Rate: every lap offers the same load over
			// the same time, and only the bunching differs.
			gaps := make([]float64, len(trips))
			total := 0.0
			for i := range gaps {
				gaps[i] = srng.ExpFloat64()
				total += gaps[i]
			}
			at := 0.0
			for i, q := range trips {
				at += gaps[i] / total * float64(lapTime)
				events = append(events, event{At: time.Duration(at), Update: -1, Q: q})
			}
			for i := range s.Batches {
				events = append(events, event{At: time.Duration(i+1) * w.UpdateInterval, Update: i})
			}
			sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
		}
		s.Laps = append(s.Laps, events)
	}
	return s
}

// digest is a hash of every byte the run will send, in order: two runs with
// the same seed must print the same one.
func (s schedule) digest() string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putBatch := func(b []graph.WeightUpdate) {
		put(uint64(len(b)))
		for _, u := range b {
			put(uint64(u.Edge))
			put(math.Float64bits(u.NewWeight))
		}
	}
	putQuery := func(q query) {
		put(uint64(q.S))
		put(uint64(q.T))
	}
	putBatch(s.WarmBatch)
	for _, q := range s.WarmQueries {
		putQuery(q)
	}
	putBatch(s.SettleBatch)
	putBatch(s.LapBatch)
	for _, b := range s.Batches {
		putBatch(b)
	}
	for _, b := range s.Burst {
		putBatch(b)
	}
	for _, events := range s.Laps {
		for _, e := range events {
			put(uint64(e.At))
			put(uint64(int64(e.Update)))
			putQuery(e.Q)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
