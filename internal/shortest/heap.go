package shortest

import "kspdg/internal/graph"

// vertexHeap is a binary min-heap of (vertex, priority) pairs used by
// Dijkstra.  Duplicate entries for the same vertex are allowed; stale entries
// are skipped by the caller via its settled set ("lazy deletion"), which is
// simpler and in practice as fast as a decrease-key heap for sparse road
// networks.
type vertexHeap struct {
	vs []graph.VertexID
	ps []float64
}

func (h *vertexHeap) len() int { return len(h.vs) }

// reset empties the heap while keeping its backing arrays for reuse.
func (h *vertexHeap) reset() {
	h.vs = h.vs[:0]
	h.ps = h.ps[:0]
}

func (h *vertexHeap) push(v graph.VertexID, p float64) {
	h.vs = append(h.vs, v)
	h.ps = append(h.ps, p)
	h.up(len(h.vs) - 1)
}

func (h *vertexHeap) pop() (graph.VertexID, float64) {
	v, p := h.vs[0], h.ps[0]
	last := len(h.vs) - 1
	h.vs[0], h.ps[0] = h.vs[last], h.ps[last]
	h.vs = h.vs[:last]
	h.ps = h.ps[:last]
	if last > 0 {
		h.down(0)
	}
	return v, p
}

func (h *vertexHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.ps[parent] <= h.ps[i] {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *vertexHeap) down(i int) {
	n := len(h.vs)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.ps[l] < h.ps[smallest] {
			smallest = l
		}
		if r < n && h.ps[r] < h.ps[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *vertexHeap) swap(i, j int) {
	h.vs[i], h.vs[j] = h.vs[j], h.vs[i]
	h.ps[i], h.ps[j] = h.ps[j], h.ps[i]
}
