package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"kspdg/internal/core"
	"kspdg/internal/graph"
)

// FuzzWireRoundTrip builds request and reply envelopes from fuzzed fields,
// encodes them with the TCP transport's gob encoding, decodes them back and
// requires the result to be identical.  Any asymmetry here would corrupt the
// master/worker protocol silently.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add("partial", int64(3), int32(1), int32(2), uint64(0), false, 7.5, uint8(2))
	f.Add("partial", int64(8), int32(40), int32(41), uint64(12), true, 1.25, uint8(5))
	f.Add("update", int64(1), int32(0), int32(9), uint64(3), true, 0.5, uint8(1))
	f.Add("stats", int64(0), int32(0), int32(0), uint64(0), false, 0.0, uint8(0))
	f.Add("ping", int64(0), int32(0), int32(0), uint64(0), false, 0.0, uint8(0))
	f.Fuzz(func(t *testing.T, kind string, k int64, a, b int32, epoch uint64, hasEpoch bool, dist float64, n uint8) {
		env := envelope{ID: epoch}
		switch kind {
		case "partial":
			req := &PartialKSPRequest{K: int(k), Epoch: epoch, HasEpoch: hasEpoch}
			for i := uint8(0); i < n%8; i++ {
				req.Pairs = append(req.Pairs, core.PairRequest{
					A: graph.VertexID(a + int32(i)),
					B: graph.VertexID(b - int32(i)),
				})
			}
			env.Partial = req
		case "update":
			req := &WeightUpdateRequest{}
			for i := uint8(0); i < n%8; i++ {
				req.Updates = append(req.Updates, graph.WeightUpdate{
					Edge:      graph.EdgeID(a + int32(i)),
					NewWeight: dist,
				})
			}
			env.Update = req
		case "stats":
			env.Stats = &StatsRequest{}
		default:
			env.Ping = true
		}
		data, err := marshalEnvelope(env)
		if err != nil {
			t.Fatalf("marshal envelope: %v", err)
		}
		got, err := unmarshalEnvelope(data)
		if err != nil {
			t.Fatalf("unmarshal envelope: %v", err)
		}
		if !envelopesEqual(env, got) {
			t.Fatalf("envelope round trip changed the message:\n sent %+v\n got  %+v", env, got)
		}

		rep := replyEnvelope{
			ID: epoch,
			Partial: &PartialKSPResponse{Flat: &FlatPaths{
				Verts:  []graph.VertexID{graph.VertexID(a), graph.VertexID(b)},
				Lens:   []int32{2},
				Dists:  []float64{dist},
				Counts: []int32{1},
			}},
			Update: &WeightUpdateResponse{PathsTouched: int(n)},
			Stats:  &StatsResponse{Worker: int(a), Subgraphs: int(n), PairsServed: int(k)},
		}
		rdata, err := marshalReply(rep)
		if err != nil {
			t.Fatalf("marshal reply: %v", err)
		}
		rgot, err := unmarshalReply(rdata)
		if err != nil {
			t.Fatalf("unmarshal reply: %v", err)
		}
		if !reflect.DeepEqual(rep, rgot) {
			t.Fatalf("reply round trip changed the message:\n sent %+v\n got  %+v", rep, rgot)
		}
	})
}

// envelopesEqual compares envelopes modulo gob's nil/empty-slice conflation.
func envelopesEqual(a, b envelope) bool {
	return reflect.DeepEqual(normalizeEnvelope(a), normalizeEnvelope(b))
}

func normalizeEnvelope(e envelope) envelope {
	if e.Partial != nil && len(e.Partial.Pairs) == 0 {
		p := *e.Partial
		p.Pairs = nil
		e.Partial = &p
	}
	if e.Update != nil && len(e.Update.Updates) == 0 {
		u := *e.Update
		u.Updates = nil
		e.Update = &u
	}
	return e
}

// FuzzFramedEnvelope attacks the request-ID framing from the reply side: the
// client's demultiplexing reader is fed adversarial reply streams — valid
// replies with reordered IDs, duplicate IDs, IDs that were never registered,
// truncated frames, and raw garbage.  The invariants: the reader never
// panics, always terminates, delivers each registered call at most one reply,
// and after the connection-teardown failAll every registered call has exactly
// one outcome (so no caller can hang).
func FuzzFramedEnvelope(f *testing.F) {
	mkStream := func(ids ...uint64) []byte {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for _, id := range ids {
			// Lens overruns Verts: a truncated Flat must decode to its
			// well-formed prefix, never panic (see DecodePaths).
			_ = enc.Encode(replyEnvelope{ID: id, Partial: &PartialKSPResponse{Flat: &FlatPaths{
				Verts:  []graph.VertexID{1, 2},
				Lens:   []int32{2, 3},
				Dists:  []float64{1.5},
				Counts: []int32{1, 1},
			}}})
		}
		return buf.Bytes()
	}
	f.Add(mkStream(1, 2, 3), uint8(3), uint16(0))
	f.Add(mkStream(3, 2, 1), uint8(3), uint16(7))  // reordered, truncated tail
	f.Add(mkStream(2, 2, 1), uint8(2), uint16(0))  // duplicate ID
	f.Add(mkStream(9, 0, 12), uint8(4), uint16(3)) // unknown and zero IDs
	f.Add(mkStream(0), uint8(1), uint16(0))        // a lone zero-ID envelope: no call owns it
	f.Add([]byte{0x00, 0x01, 0xff, 0xfe}, uint8(2), uint16(0))
	f.Fuzz(func(t *testing.T, stream []byte, nReg uint8, cut uint16) {
		if len(stream) > 0 {
			stream = stream[:len(stream)-int(cut)%(len(stream)+1)]
		}
		pending := newPendingCalls()
		n := int(nReg % 32)
		chans := make(map[uint64]chan callResult, n)
		for id := 1; id <= n; id++ {
			ch, err := pending.register(uint64(id))
			if err != nil {
				t.Fatalf("register %d: %v", id, err)
			}
			chans[uint64(id)] = ch
		}
		// The reader must consume the stream without panicking and return
		// the terminating decode error.
		if err := readReplies(gob.NewDecoder(bytes.NewReader(stream)), pending); err == nil {
			t.Fatalf("readReplies terminated without an error on a finite stream")
		}
		pending.failAll(errors.New("connection lost"))
		for id, ch := range chans {
			select {
			case res := <-ch:
				if res.err == nil && res.rep.ID != id {
					t.Fatalf("call %d received reply with ID %d", id, res.rep.ID)
				}
				if res.err == nil && res.rep.Partial != nil {
					_ = res.rep.Partial.DecodePaths() // adversarial arrays must not panic
				}
			default:
				t.Fatalf("call %d has no outcome after teardown", id)
			}
			select {
			case <-ch:
				t.Fatalf("call %d delivered more than once", id)
			default:
			}
		}
	})
}

// FuzzEnvelopeDecode feeds arbitrary bytes to the wire decoder: it must
// reject or accept them without panicking, and anything it accepts must
// re-encode and decode to the same message (no lossy acceptance).
func FuzzEnvelopeDecode(f *testing.F) {
	for _, env := range []envelope{
		{ID: 1, Partial: &PartialKSPRequest{K: 2, Pairs: []core.PairRequest{{A: 1, B: 2}}}},
		{ID: 2, Partial: &PartialKSPRequest{K: 1, Epoch: 7, HasEpoch: true}},
		{ID: 3, Update: &WeightUpdateRequest{Updates: []graph.WeightUpdate{{Edge: 3, NewWeight: 1.5}}}},
		{ID: 4, Stats: &StatsRequest{}},
		{Ping: true}, // zero ID: not special on the wire
	} {
		data, err := marshalEnvelope(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := unmarshalEnvelope(data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		data2, err := marshalEnvelope(env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v (%+v)", err, env)
		}
		env2, err := unmarshalEnvelope(data2)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		if !envelopesEqual(env, env2) {
			t.Fatalf("lossy decode:\n first  %+v\n second %+v", env, env2)
		}
	})
}
