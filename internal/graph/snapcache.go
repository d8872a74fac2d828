package graph

// snapshotCacheCap bounds the number of pairs one snapshot's cache holds.
// Once it is full, new pairs are computed and not kept; entries already held
// may still grow to a larger k.
const snapshotCacheCap = 2048

// cachedPaths is one snapshot-cache entry: the paths computed for a pair at
// k, the longest list asked for so far.
type cachedPaths struct {
	paths []Path
	k     int
}

// CachedPaths returns the first k paths cached for the pair (a, b) of this
// snapshot, and whether the cache can answer k: it can when the entry was
// computed at k or more, or when it holds fewer paths than it was asked for,
// for then it holds every path of the pair.  The snapshot cache relies on
// k-shortest-path lists being prefix-stable: the answer at k is the first k
// paths of the answer at any larger k.
//
// The returned slice is the caller's, but the paths' vertices are shared with
// the cache and must not be written.
func (s *Snapshot) CachedPaths(a, b VertexID, k int) ([]Path, bool) {
	s.cacheMu.Lock()
	e, ok := s.cache[[2]VertexID{a, b}]
	s.cacheMu.Unlock()
	if !ok || (k > e.k && len(e.paths) == e.k) {
		return nil, false
	}
	return append([]Path(nil), e.paths[:min(k, len(e.paths))]...), true
}

// CachePaths records paths as the answer for the pair (a, b) at k, unless the
// cache already answers k.  A snapshot never changes, so an entry never goes
// stale: it lives, and is dropped, with its snapshot.  The cache keeps its own
// copy of the slice but shares the paths' vertices, which must not be written
// afterwards.
func (s *Snapshot) CachePaths(a, b VertexID, k int, paths []Path) {
	key := [2]VertexID{a, b}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if e, ok := s.cache[key]; ok {
		if k <= e.k || len(e.paths) < e.k {
			return
		}
	} else if len(s.cache) >= snapshotCacheCap {
		return
	}
	if s.cache == nil {
		s.cache = make(map[[2]VertexID]cachedPaths)
	}
	s.cache[key] = cachedPaths{paths: append([]Path(nil), paths...), k: k}
}
