// Differential audit of the HTTP front door: every answer served over the
// gateway — plain, epoch-pinned, and streamed — must be length-identical to
// exact Yen on the frozen weights of the epoch the response reports, while
// weight updates land through the same HTTP surface.  This closes the loop
// the in-process harness cannot: the JSON round trip, the admission pipeline
// and the NDJSON stream all sit between the engine and the verdict.
package difftest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"kspdg/internal/dtlp"
	"kspdg/internal/gateway"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/serve"
	"kspdg/internal/shortest"
	"kspdg/internal/workload"
)

// httpPath mirrors the gateway's path JSON.
type httpPath struct {
	Vertices []graph.VertexID `json:"vertices"`
	Distance float64          `json:"distance"`
}

type httpQueryResponse struct {
	Paths     []httpPath `json:"paths"`
	Epoch     uint64     `json:"epoch"`
	Converged bool       `json:"converged"`
}

type httpStreamLine struct {
	Path  *httpPath `json:"path"`
	Done  bool      `json:"done"`
	Epoch uint64    `json:"epoch"`
	Error string    `json:"error"`
}

func toPaths(hp []httpPath) []graph.Path {
	out := make([]graph.Path, len(hp))
	for i, p := range hp {
		out[i] = graph.Path{Vertices: p.Vertices, Dist: p.Distance}
	}
	return out
}

// postJSON posts body as JSON to url and decodes the reply into out (when
// non-nil), returning the status code.
func postJSON(t *testing.T, url string, body, out interface{}) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// streamKSP reads one /v1/ksp/stream answer: its paths and the epoch its
// final line reports.
func streamKSP(t *testing.T, base string, s, tgt graph.VertexID, k int) ([]graph.Path, uint64) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/ksp/stream?source=%d&target=%d&k=%d", base, s, tgt, k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream query(%d,%d): status %d", s, tgt, resp.StatusCode)
	}
	var paths []graph.Path
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line httpStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if line.Done {
			if line.Error != "" {
				t.Fatalf("stream query(%d,%d): %s", s, tgt, line.Error)
			}
			return paths, line.Epoch
		}
		paths = append(paths, graph.Path{Vertices: line.Path.Vertices, Dist: line.Path.Distance})
	}
	t.Fatalf("stream query(%d,%d) ended without a done line (%v)", s, tgt, sc.Err())
	return nil, 0
}

func TestGatewayMatchesYen(t *testing.T) {
	p := Params{Queries: 6, UpdateRounds: 3, Seed: 99}.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	g := p.buildGraph(rng)
	part, err := partition.PartitionGraph(g, p.Z)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	x, err := dtlp.Build(part, dtlp.Config{Xi: p.Xi})
	if err != nil {
		t.Fatalf("dtlp build: %v", err)
	}
	srv := serve.New(x, nil, serve.Options{Workers: 4})
	defer srv.Close()
	gw := gateway.New(srv, gateway.Options{Rate: -1})
	ts := httptest.NewServer(gw)
	defer ts.Close()

	qgen := workload.NewQueryGenerator(g.NumVertices(), p.Seed+1)
	tm := workload.NewTrafficModel(0.35, 0.45, p.Seed+2)

	audit := func(kind string, epoch uint64, paths []graph.Path, s, tgt graph.VertexID) {
		t.Helper()
		view := x.ViewAt(epoch)
		if view == nil {
			t.Fatalf("%s query(%d,%d): epoch %d not retained", kind, s, tgt, epoch)
		}
		want := shortest.Yen(g.Snapshot(), s, tgt, p.K, &shortest.Options{Weight: view.GlobalWeight})
		if gl, wl := lengths(paths), lengths(want); !sameLengths(gl, wl) {
			t.Errorf("%s query(%d,%d)@epoch %d: HTTP lengths %v != Yen %v", kind, s, tgt, epoch, gl, wl)
		}
	}

	audited := 0
	var pinnedProbe *struct {
		s, t  graph.VertexID
		epoch uint64
	}
	for round := 0; round <= p.UpdateRounds; round++ {
		if round > 0 {
			// The weight updates travel over HTTP too, so the whole dynamic
			// regime is exercised through the public surface.
			batch := tm.Derive(g.NumEdges(), g.Directed(), g.Snapshot().Weight)
			if len(batch) == 0 {
				continue
			}
			type updateJSON struct {
				Edge   int64   `json:"edge"`
				Weight float64 `json:"weight"`
			}
			ups := make([]updateJSON, len(batch))
			for i, u := range batch {
				ups[i] = updateJSON{Edge: int64(u.Edge), Weight: u.NewWeight}
			}
			if round == 1 {
				// Round 1 names its first edge a second time with another
				// weight: the later write wins.
				ups = append(ups, updateJSON{Edge: ups[0].Edge, Weight: ups[0].Weight*1.5 + 1})
			}
			if code := postJSON(t, ts.URL+"/v1/updates", map[string]interface{}{"updates": ups}, nil); code != 200 {
				t.Fatalf("round %d: updates status %d", round, code)
			}
			last := ups[len(ups)-1]
			if got := x.Partition().Parent().Snapshot().Weight(graph.EdgeID(last.Edge)); got != last.Weight {
				t.Fatalf("round %d: master weight of edge %d = %v, last write %v", round, last.Edge, got, last.Weight)
			}
			// No oracle-side mirror is needed: serve applies the batch to the
			// shared master graph, and the audit reads weights through the
			// frozen epoch view rather than the live graph anyway.
		}
		for _, q := range qgen.Batch(p.Queries) {
			var qr httpQueryResponse
			code := postJSON(t, ts.URL+"/v1/ksp", map[string]interface{}{
				"source": q.Source, "target": q.Target, "k": p.K,
			}, &qr)
			if code != 200 {
				t.Fatalf("round %d: query status %d", round, code)
			}
			if !qr.Converged {
				t.Logf("round %d: query(%d,%d) did not converge; auditing anyway", round, q.Source, q.Target)
			}
			audit("plain", qr.Epoch, toPaths(qr.Paths), q.Source, q.Target)
			audited++
			if pinnedProbe == nil {
				pinnedProbe = &struct {
					s, t  graph.VertexID
					epoch uint64
				}{q.Source, q.Target, qr.Epoch}
			}
		}

		// One streamed query per round, audited the same way.
		q := qgen.Batch(1)[0]
		streamed, epoch := streamKSP(t, ts.URL, q.Source, q.Target, p.K)
		audit("stream", epoch, streamed, q.Source, q.Target)
		audited++
	}

	// An epoch-pinned read after all the updates must still match Yen on the
	// pinned epoch's frozen weights — the live graph has long moved on.
	if pinnedProbe != nil {
		view := x.ViewAt(pinnedProbe.epoch)
		if view == nil {
			t.Fatalf("pinned epoch %d fell out of retention", pinnedProbe.epoch)
		}
		var qr httpQueryResponse
		code := postJSON(t, ts.URL+"/v1/ksp", map[string]interface{}{
			"source": pinnedProbe.s, "target": pinnedProbe.t, "k": p.K, "epoch": pinnedProbe.epoch,
		}, &qr)
		if code != 200 {
			t.Fatalf("pinned query status %d", code)
		}
		if qr.Epoch != pinnedProbe.epoch {
			t.Fatalf("pinned query answered at epoch %d, want %d", qr.Epoch, pinnedProbe.epoch)
		}
		want := shortest.Yen(view.Partition().Parent().Snapshot(), pinnedProbe.s, pinnedProbe.t, p.K,
			&shortest.Options{Weight: view.GlobalWeight})
		if gl, wl := lengths(toPaths(qr.Paths)), lengths(want); !sameLengths(gl, wl) {
			t.Errorf("pinned query(%d,%d)@epoch %d: HTTP lengths %v != Yen %v",
				pinnedProbe.s, pinnedProbe.t, pinnedProbe.epoch, gl, wl)
		}
	}
	if audited < 2*(p.UpdateRounds+1) {
		t.Fatalf("audited only %d outcomes", audited)
	}
}
