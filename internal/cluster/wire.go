package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"kspdg/internal/codec"
	"kspdg/internal/core"
	"kspdg/internal/graph"
	"kspdg/internal/trace"
)

// Wire layout (version 1), written and read with internal/codec, all
// integers little-endian:
//
//	preamble: magic "\x89KSPDWIRE" | u32 version, sent by each side first
//	frame:    u32 n | n body bytes | u32 CRC-32C of the n+4 bytes before it
//
//	request body: u64 id | u8 kind | fields
//	  1 partial:  i64 k | u64 epoch | u8 hasEpoch | u64 traceID
//	              | u32 nPairs, nPairs × (i32 a | i32 b)
//	  2 weights:  the WAL's weight-batch payload
//	  3 topology: the WAL's topology payload | i64 numWorkers | i64 factor
//	  4 stats, 5 ping: nothing
//
//	reply body: u64 id | u8 kind | fields
//	  0 error:    text err
//	  1 partial:  u8 servedEpoch | u8 hasFlat
//	              | [flat: ids verts | ids lens | u32 n, n × f64 dists | ids counts]
//	              | u32 nSpans, nSpans × (text name | i32 parent | i64 startNs
//	                | i64 durNs | u32 nAttrs, nAttrs × (text key | text value))
//	  2 weights:  text err
//	  3 topology: ids inserted | ids deleted | text err
//	  4 stats:    7 × i64 (worker, subgraphs, pairs, requests, updates,
//	              topology batches, panics)
//	  5 pong:     nothing
//
// where "ids" is u32 n, n × i32 and "text" is u32 n, n bytes.  A body must be
// consumed exactly; an unknown kind or trailing bytes fail it.
//
// The magic's first byte has its high bit set, so a peer speaking
// encoding/gob fails on the first byte it reads (gob takes it for an
// out-of-range message length) instead of waiting for more input.
const (
	wireMagic   = "\x89KSPDWIRE"
	wireVersion = 1

	// handshakeTimeout bounds how long a dialing client waits for the
	// server's preamble.
	handshakeTimeout = 5 * time.Second
)

// errWrongPeer marks a preamble that arrived but is not this build's.
var errWrongPeer = errors.New("peer does not speak this wire protocol")

// writePreamble sends this side's preamble.
func writePreamble(w io.Writer) error {
	var e codec.Encoder
	e.Raw(wireMagic)
	e.U32(wireVersion)
	_, err := w.Write(e.Bytes())
	return err
}

// readPreamble reads and checks the peer's preamble.
func readPreamble(r io.Reader) error {
	var p [len(wireMagic) + 4]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("the peer closed the connection, as one speaking another protocol or wire version does: %w", err)
		}
		return fmt.Errorf("reading the wire preamble: %w", err)
	}
	d := codec.NewBytesDecoder(p[:])
	if magic := d.Raw(len(wireMagic)); magic != wireMagic {
		return fmt.Errorf("%w (preamble %q)", errWrongPeer, p[:])
	}
	if v := d.U32(); v != wireVersion {
		return fmt.Errorf("%w (wire version %d, this build speaks %d)", errWrongPeer, v, wireVersion)
	}
	return nil
}

// dialWire connects to a worker server and exchanges preambles, so a peer
// that is not a worker of this wire version fails here, not on its first
// request.
func dialWire(addr string) (net.Conn, *bufio.Reader, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReader(conn)
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	err = writePreamble(conn)
	if err == nil {
		err = readPreamble(br)
	}
	if err == nil {
		err = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, br, nil
}

// Request and reply kinds.  A request's kind is the position of its one
// non-nil field in envelope's order; a reply's likewise, with Err first.
const (
	kindError uint8 = iota
	kindPartial
	kindWeights
	kindTopology
	kindStats
	kindPing
)

// soleKind returns first plus the position of the one true flag, or an
// error naming how many were set.
func soleKind(first uint8, set ...bool) (uint8, error) {
	kind, n := uint8(0), 0
	for i, ok := range set {
		if ok {
			kind, n = first+uint8(i), n+1
		}
	}
	if n != 1 {
		return 0, fmt.Errorf("cluster: an envelope must carry exactly one message, this one carries %d", n)
	}
	return kind, nil
}

// appendEnvelope appends env to buf as one frame.
func appendEnvelope(buf []byte, env envelope) ([]byte, error) {
	kind, err := soleKind(kindPartial, env.Partial != nil, env.Update != nil, env.Topology != nil, env.Stats != nil, env.Ping)
	if err != nil {
		return buf, err
	}
	var e codec.Encoder
	e.Reset(buf)
	e.BeginSized()
	e.U64(env.ID)
	e.U8(kind)
	switch kind {
	case kindPartial:
		p := env.Partial
		e.Int(p.K)
		e.U64(p.Epoch)
		e.Bool(p.HasEpoch)
		e.U64(p.TraceID)
		e.Count(len(p.Pairs))
		for _, pr := range p.Pairs {
			e.I32(int32(pr.A))
			e.I32(int32(pr.B))
		}
	case kindWeights:
		e.Weights(env.Update.Updates)
	case kindTopology:
		e.Topology(env.Topology.Update)
		e.Int(env.Topology.NumWorkers)
		e.Int(env.Topology.Factor)
	}
	e.EndSized()
	return e.Bytes(), nil
}

// decodeEnvelope decodes a request frame's body.
func decodeEnvelope(body []byte) (envelope, error) {
	d := codec.NewBytesDecoder(body)
	env := envelope{ID: d.U64()}
	switch kind := d.U8(); kind {
	case kindPartial:
		p := &PartialKSPRequest{K: d.Int(), Epoch: d.U64(), HasEpoch: d.Bool(), TraceID: d.U64()}
		if n := d.Count(8); n > 0 {
			p.Pairs = make([]core.PairRequest, n)
			for i := range p.Pairs {
				p.Pairs[i] = core.PairRequest{A: graph.VertexID(d.I32()), B: graph.VertexID(d.I32())}
			}
		}
		env.Partial = p
	case kindWeights:
		env.Update = &WeightUpdateRequest{Updates: d.Weights()}
	case kindTopology:
		env.Topology = &TopologyUpdateRequest{Update: *d.Topology(), NumWorkers: d.Int(), Factor: d.Int()}
	case kindStats:
		env.Stats = &StatsRequest{}
	case kindPing:
		env.Ping = true
	default:
		d.Failf("unknown request kind %d", kind)
	}
	return env, finish(d, "request")
}

// appendReply appends rep to buf as one frame.
func appendReply(buf []byte, rep replyEnvelope) ([]byte, error) {
	kind, err := soleKind(kindError, rep.Err != "", rep.Partial != nil, rep.Update != nil, rep.Topology != nil, rep.Stats != nil, rep.Pong)
	if err != nil {
		return buf, err
	}
	var e codec.Encoder
	e.Reset(buf)
	e.BeginSized()
	e.U64(rep.ID)
	e.U8(kind)
	switch kind {
	case kindError:
		e.Text(rep.Err)
	case kindPartial:
		encodePartial(&e, rep.Partial)
	case kindWeights:
		e.Text(rep.Update.Err)
	case kindTopology:
		t := rep.Topology
		e.Count(len(t.InsertedEdges))
		codec.PutIDs(&e, t.InsertedEdges)
		e.Count(len(t.DeletedEdges))
		codec.PutIDs(&e, t.DeletedEdges)
		e.Text(t.Err)
	case kindStats:
		s := rep.Stats
		for _, v := range [...]int{s.Worker, s.Subgraphs, s.PairsServed, s.RequestsServed, s.UpdatesReceived, s.TopologyBatches, s.Panics} {
			e.Int(v)
		}
	}
	e.EndSized()
	return e.Bytes(), nil
}

func encodePartial(e *codec.Encoder, r *PartialKSPResponse) {
	e.Bool(r.ServedEpoch)
	e.Bool(r.Flat != nil)
	if f := r.Flat; f != nil {
		e.Count(len(f.Verts))
		codec.PutIDs(e, f.Verts)
		e.Count(len(f.Lens))
		codec.PutIDs(e, f.Lens)
		e.Count(len(f.Dists))
		codec.PutF64s(e, f.Dists)
		e.Count(len(f.Counts))
		codec.PutIDs(e, f.Counts)
	}
	e.Count(len(r.Spans))
	for _, s := range r.Spans {
		e.Text(s.Name)
		e.I32(s.Parent)
		e.I64(s.StartNs)
		e.I64(s.DurNs)
		e.Count(len(s.Attrs))
		for _, a := range s.Attrs {
			e.Text(a.Key)
			e.Text(a.Value)
		}
	}
}

// decodeReply decodes a reply frame's body.  Every slice of the result is
// freshly allocated: DecodePaths aliases Verts, and the engine keeps those
// paths, so nothing may point into a reused frame buffer.
func decodeReply(body []byte) (replyEnvelope, error) {
	d := codec.NewBytesDecoder(body)
	rep := replyEnvelope{ID: d.U64()}
	switch kind := d.U8(); kind {
	case kindError:
		rep.Err = d.Text()
		if rep.Err == "" {
			d.Failf("error reply without an error")
		}
	case kindPartial:
		rep.Partial = decodePartial(d)
	case kindWeights:
		rep.Update = &WeightUpdateResponse{Err: d.Text()}
	case kindTopology:
		rep.Topology = &TopologyUpdateResponse{
			InsertedEdges: codec.GetIDs[graph.EdgeID](d, d.Count(4)),
			DeletedEdges:  codec.GetIDs[graph.EdgeID](d, d.Count(4)),
			Err:           d.Text(),
		}
	case kindStats:
		rep.Stats = &StatsResponse{Worker: d.Int(), Subgraphs: d.Int(), PairsServed: d.Int(), RequestsServed: d.Int(),
			UpdatesReceived: d.Int(), TopologyBatches: d.Int(), Panics: d.Int()}
	case kindPing:
		rep.Pong = true
	default:
		d.Failf("unknown reply kind %d", kind)
	}
	return rep, finish(d, "reply")
}

func decodePartial(d *codec.Decoder) *PartialKSPResponse {
	r := &PartialKSPResponse{ServedEpoch: d.Bool()}
	if d.Bool() {
		r.Flat = &FlatPaths{
			Verts:  codec.GetIDs[graph.VertexID](d, d.Count(4)),
			Lens:   codec.GetIDs[int32](d, d.Count(4)),
			Dists:  codec.GetF64s(d, d.Count(8)),
			Counts: codec.GetIDs[int32](d, d.Count(4)),
		}
	}
	// A span takes at least 28 bytes (empty name, no attributes), an
	// attribute at least 8.
	if n := d.Count(28); n > 0 {
		r.Spans = make([]trace.SpanMsg, n)
		for i := range r.Spans {
			s := trace.SpanMsg{Name: d.Text(), Parent: d.I32(), StartNs: d.I64(), DurNs: d.I64()}
			if m := d.Count(8); m > 0 {
				s.Attrs = make([]trace.Attr, m)
				for j := range s.Attrs {
					s.Attrs[j] = trace.Attr{Key: d.Text(), Value: d.Text()}
				}
			}
			r.Spans[i] = s
		}
	}
	return r
}

// finish fails a body that was not consumed exactly and returns the
// decoder's error.
func finish(d *codec.Decoder, what string) error {
	if d.Err() == nil && d.Left() != 0 {
		d.Failf("%d trailing bytes", d.Left())
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("cluster: malformed %s: %w", what, err)
	}
	return nil
}
