package shortest

import (
	"kspdg/internal/graph"
)

// Yen computes up to k shortest loopless (simple) paths from s to t in
// ascending order of distance, following Yen's classic deviation algorithm
// [Yen 1971] with Lawler's rule (see Generator).  Fewer than k paths are
// returned if the graph does not contain k distinct simple paths from s to t.
//
// opts applies to every underlying shortest path search: a custom weight
// function affects the metric the paths are ranked by, and forbidden
// vertices/edges are excluded everywhere (in addition to Yen's own deviation
// bans).
func Yen(v graph.WeightedView, s, t graph.VertexID, k int, opts *Options) []graph.Path {
	g := pooledGenerator(v, s, t, opts, k)
	for len(g.produced) < k {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	result := append([]graph.Path(nil), g.produced...)
	g.recycle()
	return result
}

// KShortestDistinctLengths returns the shortest paths from s to t whose
// length (under the search metric) falls into the `limit` smallest distinct
// length classes.  Paths sharing the same length class are all kept but the
// class counts only once towards limit.  This is the enumeration primitive
// used by DTLP bounding path selection, where "bounding paths containing the
// same number of vfrags are counted as only one path" (Section 3.4).
//
// The metric is given by opts.Weight (typically initial weights, so the path
// length equals the vfrag count).  Enumeration generates at most maxEnumerate
// candidate paths to bound worst-case cost; the result is therefore capped at
// maxEnumerate paths even when a length class has more ties.
func KShortestDistinctLengths(v graph.WeightedView, s, t graph.VertexID, limit, maxEnumerate int, opts *Options) []graph.Path {
	if limit <= 0 {
		return nil
	}
	if maxEnumerate < limit {
		maxEnumerate = limit
	}
	g := pooledGenerator(v, s, t, opts, maxEnumerate)
	var out []graph.Path
	seen := make(map[int64]bool, limit)
	for len(g.produced) < maxEnumerate {
		p, ok := g.Next()
		if !ok {
			break
		}
		// Path lengths under the vfrag metric are sums of integer initial
		// weights; rounding guards against floating point noise.
		key := int64(p.Dist*1000 + 0.5)
		if !seen[key] {
			if len(seen) >= limit {
				break
			}
			seen[key] = true
		}
		out = append(out, p)
	}
	g.recycle()
	return out
}
