// Ridesharing: the driver-dispatch scenario from the paper's introduction.
// For every (driver, passenger) match the service wants a few alternative
// shortest routes so the driver can trade off travel time against the chance
// of picking up additional passengers along the way.  Matches arrive
// continuously and many must be evaluated at once, so the routes are computed
// with KSP-DG over a worker pool and the alternatives are scored.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/workload"
)

// rideRequest is one driver-passenger match to route.
type rideRequest struct {
	Driver    graph.VertexID
	Passenger graph.VertexID
	Dropoff   graph.VertexID
}

func main() {
	ds, err := workload.BuiltinDataset("COL", workload.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	part, err := partition.PartitionGraph(g, ds.DefaultZ)
	if err != nil {
		log.Fatal(err)
	}
	index, err := dtlp.Build(part, dtlp.Config{Xi: 3})
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(index, 4)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	engine := core.NewEngine(index, c, core.Options{MaxIterations: 100})

	// Simulate a dispatch wave: 25 matches, each needing pickup and dropoff
	// legs with k=3 alternatives for the dropoff leg.
	rng := rand.New(rand.NewSource(17))
	n := g.NumVertices()
	var matches []rideRequest
	for i := 0; i < 25; i++ {
		matches = append(matches, rideRequest{
			Driver:    graph.VertexID(rng.Intn(n)),
			Passenger: graph.VertexID(rng.Intn(n)),
			Dropoff:   graph.VertexID(rng.Intn(n)),
		})
	}

	start := time.Now()
	assigned := 0
	for i, m := range matches {
		if m.Driver == m.Passenger || m.Passenger == m.Dropoff {
			continue
		}
		// Pickup leg: single best route to the passenger.
		pickup, err := engine.QueryViewCtx(context.Background(), nil, m.Driver, m.Passenger, 1)
		if err != nil {
			log.Fatal(err)
		}
		// Trip leg: three alternatives so the driver can choose.
		trip, err := engine.QueryViewCtx(context.Background(), nil, m.Passenger, m.Dropoff, 3)
		if err != nil {
			log.Fatal(err)
		}
		if len(pickup.Paths) == 0 || len(trip.Paths) == 0 {
			continue
		}
		assigned++
		if i < 3 {
			best := trip.Paths[0]
			detour := 0.0
			if len(trip.Paths) > 1 {
				detour = trip.Paths[len(trip.Paths)-1].Dist - best.Dist
			}
			fmt.Printf("match %d: pickup %.0f min, trip %.0f min, slowest alternative +%.0f min (%d options)\n",
				i, pickup.Paths[0].Dist, best.Dist, detour, len(trip.Paths))
		}
	}
	fmt.Printf("dispatched %d/%d matches in %v using %d workers\n",
		assigned, len(matches), time.Since(start).Round(time.Millisecond), len(c.Workers()))

	// Traffic changes between dispatch waves; the index absorbs the update
	// without recomputing any bounding path.
	traffic := workload.NewTrafficModel(0.35, 0.3, 23)
	batch := traffic.Derive(g.NumEdges(), g.Directed(), g.Snapshot().Weight)
	maintStart := time.Now()
	if _, err := index.ApplyUpdates(batch); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traffic update: %d segments changed, index maintained in %v\n",
		len(batch), time.Since(maintStart).Round(time.Microsecond))
}
