// Command kspgen generates a synthetic scale-model road network and writes
// it in DIMACS ".gr" format, so it can be inspected, shared, or re-loaded by
// the other tools (and so a real DIMACS file can be swapped in seamlessly).
// With -snapshot-dir it additionally partitions the network, builds the DTLP
// index, and writes an internal/store snapshot, so a whole worker fleet can
// warm-start (`kspd -load-index`) from one prebuilt index instead of each
// process re-deriving the dataset from flags.
//
// Usage:
//
//	kspgen -dataset NY -scale small -out ny.gr
//	kspgen -width 120 -height 90 -seed 7 -out custom.gr
//	kspgen -dataset NY -scale tiny -snapshot-dir /var/lib/kspd -xi 3
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"kspdg/internal/deploy"
	"kspdg/internal/store"
	"kspdg/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "built-in dataset to generate (NY, COL, FLA, CUSA); empty means custom")
		scale   = flag.String("scale", "small", "built-in dataset scale: tiny, small, medium")
		width   = flag.Int("width", 50, "custom grid width")
		height  = flag.Int("height", 40, "custom grid height")
		seed    = flag.Int64("seed", 1, "custom generator seed")
		directd = flag.Bool("directed", false, "generate a directed network")
		out     = flag.String("out", "", "output file (default stdout; with -snapshot-dir, empty skips the DIMACS dump)")
		snapDir = flag.String("snapshot-dir", "", "also build the DTLP index and write an internal/store snapshot into this directory")
		z       = flag.Int("z", 0, "subgraph size for -snapshot-dir (0 = dataset default)")
		xi      = flag.Int("xi", 3, "bounding paths per boundary pair for -snapshot-dir")
	)
	flag.Parse()

	var ds *workload.Dataset
	var err error
	if *dataset != "" {
		var sc workload.Scale
		if sc, err = workload.ParseScale(*scale); err != nil {
			fmt.Fprintf(os.Stderr, "kspgen: %v\n", err)
			os.Exit(2)
		}
		ds, err = workload.BuiltinDataset(*dataset, sc)
	} else {
		ds, err = workload.Generate(workload.RoadNetworkSpec{
			Name: "custom", Width: *width, Height: *height, DiagonalFraction: 0.15,
			MissingFraction: 0.25, MinWeight: 1, MaxWeight: 10, Directed: *directd, Seed: *seed, DefaultZ: 100,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kspgen: %v\n", err)
		os.Exit(1)
	}

	if *out != "" || *snapDir == "" {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kspgen: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := workload.WriteDIMACS(w, ds.Graph); err != nil {
			fmt.Fprintf(os.Stderr, "kspgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "kspgen: wrote %s (%d vertices, %d edges)\n", ds.Name, ds.Graph.NumVertices(), ds.Graph.NumEdges())
	}

	if *snapDir != "" {
		st, err := store.Open(*snapDir, store.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "kspgen: %v\n", err)
			os.Exit(1)
		}
		index, err := deploy.ColdIndex(ds, *z, *xi, st, slog.New(slog.NewTextHandler(os.Stderr, nil)))
		if err == nil {
			err = st.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "kspgen: %v\n", err)
			os.Exit(1)
		}
		stats := index.Stats()
		fmt.Fprintf(os.Stderr, "kspgen: snapshot of %s in %s (%d subgraphs, %d bounding paths)\n",
			ds.Name, *snapDir, stats.NumSubgraphs, stats.NumBoundingPaths)
	}
}
