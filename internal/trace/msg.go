package trace

import "time"

// SpanMsg is the wire shape of a remotely recorded span.  Workers cannot
// share the master's clock or span-ID space, so a message carries only
// durations relative to the request it served: StartNs is the offset from the
// moment the worker began handling the request, DurNs the span's length.
// Parent indexes another entry of the same slice; -1 attaches the span
// directly under the master-side RPC span it is grafted onto.  The zero value
// round-trips through encoding/gob.
type SpanMsg struct {
	Name    string
	Parent  int32 // index into the same []SpanMsg, or -1 for the graft root
	StartNs int64 // offset from request handling start
	DurNs   int64
	Attrs   []Attr
}

// Graft attaches remotely recorded spans under s, preserving their relative
// structure and durations.  Message start offsets are rebased onto s's own
// start time, which slightly misplaces them by the network latency — the
// durations themselves are exact.  Safe on a nil receiver or empty slice.
func (s *Span) Graft(msgs []SpanMsg) {
	if s == nil || len(msgs) == 0 {
		return
	}
	children := make([]*Span, len(msgs))
	for i, m := range msgs {
		parent := s
		if m.Parent >= 0 && int(m.Parent) < i && children[m.Parent] != nil {
			parent = children[m.Parent]
		}
		c := parent.tr.newSpanAt(m.Name, parent.id, s.start.Add(time.Duration(m.StartNs)))
		if c == nil {
			continue
		}
		for _, a := range m.Attrs {
			c.SetAttr(a.Key, a.Value)
		}
		c.finishAs(time.Duration(m.DurNs))
		children[i] = c
	}
}
