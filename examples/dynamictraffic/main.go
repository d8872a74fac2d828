// Dynamic traffic: a head-to-head of KSP-DG against the centralized
// baselines (Yen and FindKSP) and the CANDS shortest-path index under
// continuously changing traffic — a miniature version of the paper's Section
// 6.5 comparison that can be run in seconds.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"kspdg/internal/baseline"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/partition"
	"kspdg/internal/workload"
)

func main() {
	ds, err := workload.BuiltinDataset("FLA", workload.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	fmt.Printf("dataset %s: %d vertices, %d edges\n", ds.Name, g.NumVertices(), g.NumEdges())

	// KSP-DG with its DTLP index.
	part, err := partition.PartitionGraph(g, ds.DefaultZ)
	if err != nil {
		log.Fatal(err)
	}
	index, err := dtlp.Build(part, dtlp.Config{Xi: 3})
	if err != nil {
		log.Fatal(err)
	}
	engine := core.NewEngine(index, nil, core.Options{MaxIterations: 100})

	// Baselines.
	yen := baseline.NewYen(g)
	find := baseline.NewFindKSP(g)
	cands, err := baseline.NewCANDS(g, ds.DefaultZ)
	if err != nil {
		log.Fatal(err)
	}

	traffic := workload.NewTrafficModel(0.35, 0.3, 11)
	queries := workload.NewQueryGenerator(g.NumVertices(), 31).Batch(40)
	const k = 2

	for round := 1; round <= 2; round++ {
		batch := traffic.Derive(g.NumEdges(), g.Directed(), g.Snapshot().Weight)
		// Index maintenance under the update batch.
		t0 := time.Now()
		if _, err := index.ApplyUpdates(batch); err != nil {
			log.Fatal(err)
		}
		dtlpMaint := time.Since(t0)
		t0 = time.Now()
		if err := cands.ApplyUpdates(batch); err != nil {
			log.Fatal(err)
		}
		candsMaint := time.Since(t0)
		fmt.Printf("round %d: %d edges changed; maintenance DTLP=%v CANDS=%v\n",
			round, len(batch), dtlpMaint.Round(time.Microsecond), candsMaint.Round(time.Microsecond))

		// Query batch with each algorithm.
		t0 = time.Now()
		for _, q := range queries {
			if _, err := engine.QueryViewCtx(context.Background(), nil, q.Source, q.Target, k); err != nil {
				log.Fatal(err)
			}
		}
		kspdgTime := time.Since(t0)
		t0 = time.Now()
		for _, q := range queries {
			if _, err := find.Query(q.Source, q.Target, k); err != nil {
				log.Fatal(err)
			}
		}
		findTime := time.Since(t0)
		t0 = time.Now()
		for _, q := range queries {
			if _, err := yen.Query(q.Source, q.Target, k); err != nil {
				log.Fatal(err)
			}
		}
		yenTime := time.Since(t0)
		fmt.Printf("         %d queries (k=%d): KSP-DG=%v FindKSP=%v Yen=%v\n",
			len(queries), k, kspdgTime.Round(time.Millisecond), findTime.Round(time.Millisecond), yenTime.Round(time.Millisecond))
	}
}
