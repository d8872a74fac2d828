// Navigation: the "alternative routes" scenario from the paper's
// introduction (Figure 1): a navigation service continuously answers top-k
// route queries over a city-scale road network while traffic evolves, using a
// simulated multi-worker cluster so many concurrent queries are served in
// parallel.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"kspdg/internal/cluster"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/fanout"
	"kspdg/internal/partition"
	"kspdg/internal/workload"
)

func main() {
	// Load the scale-model New York road network.
	ds, err := workload.BuiltinDataset("NY", workload.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	fmt.Printf("road network %s: %d intersections, %d road segments\n", ds.Name, g.NumVertices(), g.NumEdges())

	part, err := partition.PartitionGraph(g, ds.DefaultZ)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	index, err := dtlp.Build(part, dtlp.Config{Xi: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DTLP index built in %v (%d subgraphs, skeleton with %d vertices)\n",
		time.Since(start).Round(time.Millisecond), part.NumSubgraphs(), index.Skeleton().NumVertices())

	// Deploy on a simulated 4-worker cluster: the cluster answers the refine
	// step, the index takes the traffic updates.
	const workers = 4
	c, err := cluster.New(index, workers)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	engine := core.NewEngine(index, c, core.Options{MaxIterations: 100})

	// A navigation service: every "minute" traffic conditions change and a
	// new batch of route requests arrives.
	traffic := workload.NewTrafficModel(0.35, 0.30, 7)
	queries := workload.NewQueryGenerator(g.NumVertices(), 99)
	const k = 3
	for minute := 1; minute <= 3; minute++ {
		batch := traffic.Derive(g.NumEdges(), g.Directed(), g.Snapshot().Weight)
		maintStart := time.Now()
		if _, err := index.ApplyUpdates(batch); err != nil {
			log.Fatal(err)
		}
		maint := time.Since(maintStart)

		requests := queries.Batch(40)
		qStart := time.Now()
		// One query processor per worker.
		results := make([]core.Result, len(requests))
		errs := make([]error, len(requests))
		fanout.Do(len(requests), workers, func(i int) {
			results[i], errs[i] = engine.QueryViewCtx(context.Background(), nil, requests[i].Source, requests[i].Target, k)
		})
		if err := errors.Join(errs...); err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(qStart)

		fmt.Printf("minute %d: %d road segments changed (maintenance %v); %d route requests answered in %v\n",
			minute, len(batch), maint.Round(time.Microsecond), len(requests), elapsed.Round(time.Millisecond))
		// Show the alternatives offered for the first request.
		q := requests[0]
		fmt.Printf("  alternatives for trip %d -> %d:\n", q.Source, q.Target)
		for i, p := range results[0].Paths {
			fmt.Printf("    route %d: %.0f min via %d intersections\n", i+1, p.Dist, len(p.Vertices))
		}
	}
	for _, w := range c.Workers() {
		st := w.HandleStats(cluster.StatsRequest{})
		fmt.Printf("worker %d: %d subgraphs, %d requests, %d pairs\n", st.Worker, st.Subgraphs, st.RequestsServed, st.PairsServed)
	}
}
