package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// TestSpecIsBenchmarkJSON keeps the file the driver reads equal to the
// tables the program reports by.
func TestSpecIsBenchmarkJSON(t *testing.T) {
	have, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(have, &doc); err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON(doc.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Errorf("BENCHMARK.json is not `-spec -seconds %d` of spec.go; regenerate it", doc.RunSeconds)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}

// TestScheduleFollowsSeed: the same seed gives the same bytes, another seed
// other bytes, and every seed and every lap the same trips.
func TestScheduleFollowsSeed(t *testing.T) {
	ds, err := roadNetwork()
	if err != nil {
		t.Fatal(err)
	}
	trips := func(events []event) []query {
		var out []query
		for _, e := range events {
			if e.Update < 0 {
				out = append(out, e.Q)
			}
		}
		sort.Slice(out, func(i, j int) bool {
			return out[i].S < out[j].S || out[i].S == out[j].S && out[i].T < out[j].T
		})
		return out
	}
	for _, w := range workloads {
		a := buildSchedule(w, ds.Graph, 1, 3)
		b := buildSchedule(w, ds.Graph, 1, 3)
		c := buildSchedule(w, ds.Graph, 2, 3)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 1 gave two schedules", w.Name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and 2 gave one schedule", w.Name)
		}
		want := trips(a.Laps[0])
		if len(want) != w.LapQueries {
			t.Errorf("%s: %d queries in a lap, want %d", w.Name, len(want), w.LapQueries)
		}
		for _, lap := range [][]event{a.Laps[1], a.Laps[2], c.Laps[0]} {
			got := trips(lap)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: laps differ in their trips, not only in their order", w.Name)
				}
			}
		}
	}
}

// TestSmoke runs every workload for one short lap, untraced and traced, and
// checks that every metric of spec.go comes out, that the answers are right
// and that the traced lap's ledger has no hole.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eight deployments")
	}
	for _, w := range workloads {
		w.LapQueries = 200
		w.UpdateEvery = 100
		for _, traced := range []bool{false, true} {
			cfg := runConfig{W: w, Seed: 1, Laps: 1, Trace: traced, WorkDir: t.TempDir(), OutDir: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			for _, m := range list {
				v, ok := rep.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s = %+v (present %v)", w.Name, m.Name, v, ok)
				}
			}
			if len(rep.Metrics) != len(list) {
				t.Errorf("%s: %d metrics reported, spec.go lists %d", w.Name, len(rep.Metrics), len(list))
			}
			if !traced {
				if v := rep.Metrics["exact_share"].Value; v < 0.9 {
					t.Errorf("%s: exact_share %v", w.Name, v)
				}
				continue
			}
			sp := rep.SpanMs
			parts := sp["admission"] + sp["queue"] + sp["execute"]
			if request := sp["request /v1/ksp"]; math.Abs(request-parts) > 0.05*request {
				t.Errorf("%s: request spans %.1f ms, admission+queue+execute %.1f ms", w.Name, request, parts)
			}
			if inner := sp["filter"] + sp["refine"]; inner < 0.9*sp["execute"] {
				t.Errorf("%s: filter+refine %.1f ms of execute %.1f ms", w.Name, inner, sp["execute"])
			}
		}
	}
}
