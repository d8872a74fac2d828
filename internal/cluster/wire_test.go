package cluster

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kspdg/internal/codec"
	"kspdg/internal/core"
	"kspdg/internal/graph"
	"kspdg/internal/trace"
)

var updateWire = flag.Bool("update-wire", false, "rewrite the wire golden frames in testdata/wire")

// goldenMessage is one request or reply pinned by TestWireGolden.
type goldenMessage struct {
	name string
	env  *envelope
	rep  *replyEnvelope
}

func (m goldenMessage) frame(tb testing.TB) []byte {
	tb.Helper()
	var frame []byte
	var err error
	if m.env != nil {
		frame, err = appendEnvelope(nil, *m.env)
	} else {
		frame, err = appendReply(nil, *m.rep)
	}
	if err != nil {
		tb.Fatalf("%s: %v", m.name, err)
	}
	return frame
}

func (m goldenMessage) body(tb testing.TB) []byte { return frameBody(tb, m.frame(tb)) }

// decode decodes body as m's kind of message and returns it as m's pointer
// type, for comparison.
func (m goldenMessage) decode(body []byte) (any, error) {
	if m.env != nil {
		env, err := decodeEnvelope(body)
		return &env, err
	}
	rep, err := decodeReply(body)
	return &rep, err
}

func (m goldenMessage) want() any {
	if m.env != nil {
		return m.env
	}
	return m.rep
}

// goldenMessages is one request and one reply of every kind.
func goldenMessages() []goldenMessage {
	return []goldenMessage{
		{name: "request-partial", env: &envelope{ID: 7, Partial: &PartialKSPRequest{
			Pairs: []core.PairRequest{{A: 4, B: 9}, {A: 9, B: 17}}, K: 3, Epoch: 12, HasEpoch: true, TraceID: 0x1122334455}}},
		{name: "request-weights", env: &envelope{ID: 8, Update: &WeightUpdateRequest{
			Updates: []graph.WeightUpdate{{Edge: 3, NewWeight: 2.5}, {Edge: 11, NewWeight: 0.125}}}}},
		{name: "request-topology", env: &envelope{ID: 9, Topology: &TopologyUpdateRequest{
			Update: graph.TopologyUpdate{
				AddVertices:    2,
				InsertEdges:    []graph.Edge{{U: 0, V: 18, Weight: 3.5}},
				DeleteEdges:    []graph.EdgeID{5},
				DeleteVertices: []graph.VertexID{6},
			},
			NumWorkers: 2, Factor: 1}}},
		{name: "request-stats", env: &envelope{ID: 10, Stats: &StatsRequest{}}},
		{name: "request-ping", env: &envelope{ID: 11, Ping: true}},
		{name: "reply-error", rep: &replyEnvelope{ID: 7, Err: "cluster: worker panic: boom"}},
		{name: "reply-partial", rep: &replyEnvelope{ID: 7, Partial: &PartialKSPResponse{
			Flat: &FlatPaths{
				Verts:  []graph.VertexID{4, 5, 9, 4, 6, 9, 9, 17},
				Lens:   []int32{3, 3, 2},
				Dists:  []float64{2.5, 3, 1.25},
				Counts: []int32{2, 1},
			},
			ServedEpoch: true,
			Spans: []trace.SpanMsg{
				{Name: "worker_exec", Parent: -1, DurNs: 81234, Attrs: []trace.Attr{{Key: "worker", Value: "0"}, {Key: "pairs", Value: "2"}}},
				{Name: "pair_yen", Parent: 0, StartNs: 1200, DurNs: 40000, Attrs: []trace.Attr{{Key: "pair", Value: "4-9"}}},
			}}}},
		{name: "reply-weights", rep: &replyEnvelope{ID: 8, Update: &WeightUpdateResponse{}}},
		{name: "reply-topology", rep: &replyEnvelope{ID: 9, Topology: &TopologyUpdateResponse{
			InsertedEdges: []graph.EdgeID{40}, DeletedEdges: []graph.EdgeID{5, 12, 13}}}},
		{name: "reply-stats", rep: &replyEnvelope{ID: 10, Stats: &StatsResponse{
			Worker: 1, Subgraphs: 3, PairsServed: 120, RequestsServed: 30, UpdatesReceived: 9, TopologyBatches: 1}}},
		{name: "reply-pong", rep: &replyEnvelope{ID: 11, Pong: true}},
	}
}

// TestWireGolden pins the wire format to frames in testdata/wire: encoding
// each message must reproduce its file byte for byte, and decoding the file
// must give back the message, which re-encodes to the same bytes.  A failure
// means the wire changed, which needs a wireVersion bump; rewrite the files
// with go test -run TestWireGolden -update-wire.
func TestWireGolden(t *testing.T) {
	dir := filepath.Join("testdata", "wire")
	check := func(name string, got []byte) []byte {
		t.Helper()
		path := filepath.Join(dir, name+".bin")
		if *updateWire {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding differs from %s:\n got  %x\n want %x", name, path, got, want)
		}
		return want
	}

	var pre bytes.Buffer
	if err := writePreamble(&pre); err != nil {
		t.Fatal(err)
	}
	if err := readPreamble(bytes.NewReader(check("preamble", pre.Bytes()))); err != nil {
		t.Errorf("preamble: %v", err)
	}

	for _, m := range goldenMessages() {
		golden := check(m.name, m.frame(t))
		got, err := m.decode(frameBody(t, golden))
		if err != nil {
			t.Errorf("%s: decoding the golden frame: %v", m.name, err)
			continue
		}
		if !reflect.DeepEqual(got, m.want()) {
			t.Errorf("%s: golden frame decodes to %+v, want %+v", m.name, got, m.want())
		}
		again := goldenMessage{name: m.name}
		if env, ok := got.(*envelope); ok {
			again.env = env
		} else {
			again.rep = got.(*replyEnvelope)
		}
		if !bytes.Equal(again.frame(t), golden) {
			t.Errorf("%s: decoded message re-encodes to different bytes", m.name)
		}
	}
}

// hugeCountBody is a partial request whose pair count claims 2^32-1 pairs.
func hugeCountBody() []byte {
	return hugeCountBodyOf(^uint32(0))
}

func hugeCountBodyOf(pairs uint32) []byte {
	var e codec.Encoder
	e.U64(1)
	e.U8(kindPartial)
	e.Int(3)
	e.U64(0)
	e.Bool(false)
	e.U64(0)
	e.U32(pairs)
	e.I32(1)
	e.I32(2)
	return e.Bytes()
}

// allocatedBytes returns how many bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWireHugeCountFailsBeforeAllocating sends counts that overstate what
// the input holds — a pair count in a body and the length of a frame — and
// requires each to fail without allocating for the claimed size (the bound
// leaves room for the race detector and other tests' goroutines).
func TestWireHugeCountFailsBeforeAllocating(t *testing.T) {
	const runs = 10
	body := hugeCountBodyOf(1 << 20) // 8 MiB of pairs if believed
	if n := allocatedBytes(func() {
		for i := 0; i < runs; i++ {
			if _, err := decodeEnvelope(body); err == nil {
				t.Fatal("a request claiming 2^20 pairs in a few bytes decoded")
			}
		}
	}); n > runs<<20 {
		t.Fatalf("%d failed decodes allocated %d bytes", runs, n)
	}

	var frame codec.Encoder
	frame.U32(1 << 29) // a 512 MiB body, of which 3 bytes arrive
	frame.Raw("abc")
	if n := allocatedBytes(func() {
		for i := 0; i < runs; i++ {
			if _, err := codec.ReadSized(bytes.NewReader(frame.Bytes()), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated frame: got %v, want an unexpected EOF", err)
			}
		}
	}); n > runs<<20 {
		t.Fatalf("%d truncated frames allocated %d bytes", runs, n)
	}
}

// TestDialRejectsWrongPeer dials peers that are not workers of this wire
// version: each must fail at DialPool with an error naming the cause, not on
// the first request.
func TestDialRejectsWrongPeer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		greet []byte
		want  string
	}{
		{"newer version", []byte(wireMagic + "\x02\x00\x00\x00"), "wire version 2, this build speaks 1"},
		{"other protocol", []byte("HTTP/1.1 400 Bad\r\n"), "does not speak this wire protocol"},
		{"silent close", nil, "reading the wire preamble"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				_, _ = conn.Write(tc.greet)
				conn.Close()
			}()
			_, err = DialPool(ln.Addr().String(), ClientOptions{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DialPool: got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestServerDropsWrongPeer speaks the wrong preamble to a real server: it
// sends its own preamble, then closes the connection without serving.
func TestServerDropsWrongPeer(t *testing.T) {
	srv, _ := buildServedWorker(t)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(wireMagic + "\x09\x00\x00\x00")); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := readPreamble(bytes.NewReader(got)); err != nil || len(got) != len(wireMagic)+4 {
		t.Fatalf("server sent %x (%v), want its preamble and nothing else", got, err)
	}
}

// TestShortReplyFailsTheBatch has a worker answer fewer (or more) pairs than
// it was asked about.  The share must fail: filling the missing pairs with
// "no paths" would be cached as an answer and could make a wrong result
// report convergence.
func TestShortReplyFailsTheBatch(t *testing.T) {
	pairs := []core.PairRequest{{A: 1, B: 2}, {A: 3, B: 4}}
	for _, answered := range []int{0, 1, 3} {
		p := newProvider([]func(PartialKSPRequest) (PartialKSPResponse, error){func(PartialKSPRequest) (PartialKSPResponse, error) {
			return PartialKSPResponse{Flat: &FlatPaths{Counts: make([]int32, answered)}}, nil
		}}, 1, ReplicatedOptions{}, nil)
		if _, err := p.call(context.Background(), 0, pairs, 2, 0); err == nil {
			t.Errorf("a reply answering %d of %d pairs was accepted", answered, len(pairs))
		}
	}
}

// wireBenchCase is a refine round at ruler shape: pairs of boundary
// vertices on a 600-vertex grid and k paths of pathLen vertices per pair.
type wireBenchCase struct{ k, pairs, pathLen int }

var wireBenchCases = []wireBenchCase{{k: 3, pairs: 2, pathLen: 12}, {k: 8, pairs: 8, pathLen: 24}}

func (c wireBenchCase) String() string { return fmt.Sprintf("k=%d,pairs=%d", c.k, c.pairs) }

func (c wireBenchCase) messages() (envelope, replyEnvelope) {
	req := &PartialKSPRequest{K: c.k, Epoch: 41, HasEpoch: true}
	resp := &PartialKSPResponse{Flat: &FlatPaths{}}
	for p := 0; p < c.pairs; p++ {
		a := graph.VertexID(37 * p % 600)
		b := graph.VertexID((37*p + 211) % 600)
		req.Pairs = append(req.Pairs, core.PairRequest{A: a, B: b})
		for i := 0; i < c.k; i++ {
			path := graph.Path{Dist: 10 + float64(i)*0.75}
			for v := 0; v < c.pathLen; v++ {
				path.Vertices = append(path.Vertices, graph.VertexID((int(a)+v*30+i)%600))
			}
			resp.Flat.appendPath(path)
		}
		resp.Flat.Counts = append(resp.Flat.Counts, int32(c.k))
	}
	return envelope{ID: 99, Partial: req}, replyEnvelope{ID: 99, Partial: resp}
}

// BenchmarkWireEncode measures encoding one refine request and its reply
// into a reused buffer, as the client and server do per message.
func BenchmarkWireEncode(b *testing.B) {
	for _, c := range wireBenchCases {
		env, rep := c.messages()
		b.Run("request/"+c.String(), func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = appendEnvelope(buf[:0], env)
			}
			b.SetBytes(int64(len(buf)))
		})
		b.Run("reply/"+c.String(), func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = appendReply(buf[:0], rep)
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// BenchmarkWireDecode measures reading one frame (CRC check included) into
// a reused buffer and decoding it, as the connection readers do.
func BenchmarkWireDecode(b *testing.B) {
	for _, c := range wireBenchCases {
		env, rep := c.messages()
		reqFrame, _ := appendEnvelope(nil, env)
		repFrame, _ := appendReply(nil, rep)
		run := func(frame []byte, decode func([]byte) error) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(frame)))
				r := bytes.NewReader(frame)
				var buf []byte
				for i := 0; i < b.N; i++ {
					r.Reset(frame)
					body, err := codec.ReadSized(r, buf)
					if err == nil {
						err = decode(body)
					}
					if err != nil {
						b.Fatal(err)
					}
					buf = body
				}
			}
		}
		b.Run("request/"+c.String(), run(reqFrame, func(body []byte) error {
			_, err := decodeEnvelope(body)
			return err
		}))
		b.Run("reply/"+c.String(), run(repFrame, func(body []byte) error {
			_, err := decodeReply(body)
			return err
		}))
	}
}
