package difftest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"kspdg/internal/deploy"
	"kspdg/internal/graph"
	"kspdg/internal/shortest"
	"kspdg/internal/workload"
)

// TestStandaloneWorkersMatchYen is the oracle lane for the shipped shape:
// deploy.Start over deploy.StartWorker workers — two at factor 1, three at
// factor 2 — TCP workers that apply every broadcast batch to their own
// weight copies, on NY tiny, with a data directory and the HTTP API.
// Writes go over HTTP one at a time: weight batches (the first names an
// edge twice), then a topology batch that deletes an edge on a returned
// path and inserts a shortcut.  After each write, unpinned /v1/ksp and
// /v1/ksp/stream answers must report the write's epoch and equal Yen at
// it.  The master then drains and restarts with LoadIndex against the
// same workers: the epoch carries on and the answers still match, before
// and after one more write.
//
// Reads pinned to older epochs are left out on purpose: standalone workers
// serve their live weights whatever the pin.
func TestStandaloneWorkersMatchYen(t *testing.T) {
	if testing.Short() {
		t.Skip("the standalone-worker lane runs in the full lane")
	}
	for _, tc := range []struct{ workers, factor int }{{2, 1}, {3, 2}} {
		t.Run(fmt.Sprintf("%d workers factor %d", tc.workers, tc.factor), func(t *testing.T) {
			checkStandalone(t, tc.workers, tc.factor)
		})
	}
}

// checkStandalone runs the lane over the given number of standalone
// workers at the given replication factor.
func checkStandalone(t *testing.T, workers, factor int) {
	const k = 3
	var addrs []string
	for w := 0; w < workers; w++ {
		srv, err := deploy.StartWorker(deploy.WorkerConfig{
			Dataset: "NY", Scale: "tiny", WorkerID: w, NumWorkers: workers, Replicas: factor, Listen: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	cfg := deploy.Config{
		Dataset: "NY", Scale: "tiny", Xi: 3, Connect: strings.Join(addrs, ","), Pool: 2, Replicas: factor,
		Concurrency: 2, DataDir: t.TempDir(), HTTPAddr: "127.0.0.1:0", HTTPRate: -1,
	}
	m, err := deploy.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if m != nil {
			m.Close()
		}
	}()

	n := m.Index.Partition().Parent().NumVertices()
	qgen := workload.NewQueryGenerator(n, 11)
	tm := workload.NewTrafficModel(0.35, 0.45, 12)

	// audit answers random pairs plus any targeted ones, plain and streamed,
	// and holds each to Yen on the master's view of the epoch it reports,
	// which must be want.  It returns the plain answers' paths.
	audit := func(label string, want uint64, targeted ...[2]graph.VertexID) [][]graph.Path {
		t.Helper()
		pairs := targeted
		for _, q := range qgen.Batch(5) {
			pairs = append(pairs, [2]graph.VertexID{q.Source, q.Target})
		}
		check := func(kind string, s, tgt graph.VertexID, epoch uint64, got []graph.Path) {
			t.Helper()
			if epoch != want {
				t.Fatalf("%s: %s query(%d,%d) answered at epoch %d, want %d", label, kind, s, tgt, epoch, want)
			}
			view := m.Index.ViewAt(epoch)
			if view == nil {
				t.Fatalf("%s: epoch %d not retained", label, epoch)
			}
			yen := shortest.Yen(view.Partition().Parent().Snapshot(), s, tgt, k, &shortest.Options{Weight: view.GlobalWeight})
			if gl, wl := lengths(got), lengths(yen); !sameLengths(gl, wl) {
				t.Errorf("%s: %s query(%d,%d)@epoch %d: lengths %v != Yen %v", label, kind, s, tgt, epoch, gl, wl)
			}
		}
		var out [][]graph.Path
		for _, pr := range pairs {
			var qr httpQueryResponse
			body := map[string]interface{}{"source": pr[0], "target": pr[1], "k": k}
			if code := postJSON(t, m.URL+"/v1/ksp", body, &qr); code != http.StatusOK {
				t.Fatalf("%s: query(%d,%d) status %d", label, pr[0], pr[1], code)
			}
			check("plain", pr[0], pr[1], qr.Epoch, toPaths(qr.Paths))
			out = append(out, toPaths(qr.Paths))
		}
		s, tgt := pairs[len(pairs)-1][0], pairs[len(pairs)-1][1]
		paths, epoch := streamKSP(t, m.URL, s, tgt, k)
		check("stream", s, tgt, epoch, paths)
		return out
	}

	type updateJSON struct {
		Edge   int64   `json:"edge"`
		Weight float64 `json:"weight"`
	}
	var epoch uint64
	writeWeights := func(repeat bool) {
		t.Helper()
		g := m.Index.Partition().Parent()
		var ups []updateJSON
		for _, u := range tm.Derive(g.NumEdges(), g.Directed(), g.Snapshot().Weight) {
			ups = append(ups, updateJSON{Edge: int64(u.Edge), Weight: u.NewWeight})
		}
		if repeat {
			// The later write of a repeated edge wins, on the master and on
			// every worker.
			ups = append(ups, updateJSON{Edge: ups[0].Edge, Weight: ups[0].Weight*1.5 + 1})
		}
		var reply struct {
			Epoch uint64 `json:"epoch"`
		}
		if code := postJSON(t, m.URL+"/v1/updates", map[string]interface{}{"updates": ups}, &reply); code != http.StatusOK {
			t.Fatalf("updates status %d", code)
		}
		if reply.Epoch != epoch+1 {
			t.Fatalf("weight batch published epoch %d, want %d", reply.Epoch, epoch+1)
		}
		epoch = reply.Epoch
	}

	answers := audit("initial", 0)
	writeWeights(true)
	audit("repeated-edge batch", epoch)
	writeWeights(false)
	answers = audit("second batch", epoch)

	// Delete the first edge of a returned path and insert a shortcut between
	// the endpoints of another query.
	g := m.Index.Partition().Parent()
	var cut graph.EdgeID = graph.NoEdge
	var severed [2]graph.VertexID
	for _, paths := range answers {
		if len(paths) > 0 && len(paths[0].Vertices) > 1 {
			vs := paths[0].Vertices
			e, ok := g.EdgeBetween(vs[0], vs[1])
			if ok {
				cut, severed = e, [2]graph.VertexID{vs[0], vs[len(vs)-1]}
				break
			}
		}
	}
	if cut == graph.NoEdge {
		t.Fatal("no returned path to cut")
	}
	q := qgen.Batch(1)[0]
	var topo struct {
		Epoch    uint64         `json:"epoch"`
		Inserted []graph.EdgeID `json:"inserted_edges"`
		Deleted  []graph.EdgeID `json:"deleted_edges"`
	}
	body := map[string]interface{}{
		"delete_edges": []int64{int64(cut)},
		"insert_edges": []map[string]interface{}{{"u": q.Source, "v": q.Target, "weight": 1.0}},
	}
	if code := postJSON(t, m.URL+"/v1/topology", body, &topo); code != http.StatusOK {
		t.Fatalf("topology status %d", code)
	}
	if topo.Epoch != epoch+1 || len(topo.Inserted) != 1 || len(topo.Deleted) != 1 {
		t.Fatalf("topology batch: epoch %d (want %d), inserted %v, deleted %v", topo.Epoch, epoch+1, topo.Inserted, topo.Deleted)
	}
	epoch = topo.Epoch
	targeted := [][2]graph.VertexID{severed, {q.Source, q.Target}}
	audit("topology batch", epoch, targeted...)

	// Drain (final snapshot) and warm-start the master against the same
	// workers.
	err = m.Close()
	m = nil
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	cfg.LoadIndex = true
	if m, err = deploy.Start(cfg); err != nil {
		t.Fatalf("warm start: %v", err)
	}
	var health struct {
		Epoch uint64 `json:"epoch"`
	}
	resp, err := http.Get(m.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Epoch != epoch {
		t.Fatalf("warm start /healthz epoch %d (err %v), want %d", health.Epoch, err, epoch)
	}
	audit("warm start", epoch, targeted...)
	writeWeights(false)
	audit("batch after warm start", epoch, targeted...)
}
