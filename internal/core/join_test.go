package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kspdg/internal/graph"
)

// refJoinStep is the join step as the plain definition states it: every
// simple (prefix, segment path) join, sorted with ComparePaths, cut to beam.
func refJoinStep(a *vertexArena, prefixes, segs []graph.Path, beam int) (kept []graph.Path, cutDist float64, cut bool) {
	var all []graph.Path
	for _, prefix := range prefixes {
		for _, seg := range segs {
			if joined, ok := joinSimple(a, prefix, seg); ok {
				all = append(all, joined)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return graph.ComparePaths(all[i], all[j]) < 0 })
	if len(all) > beam {
		return all[:beam], all[beam].Dist, true
	}
	return all, 0, false
}

// refJoin is Engine.join over refJoinStep.
func refJoin(sc *engineScratch, ex *examinedSeq, list []graph.Path, k int, res *Result) []graph.Path {
	ex.beamBound, ex.bound = math.Inf(1), math.Inf(1)
	segs, firsts := sc.segments(ex.seq)
	if len(segs) == 0 {
		return list
	}
	for _, pl := range segs {
		ex.bound = math.Min(ex.bound, pl.missBound(firsts))
	}
	current := slices.Clone(segs[0].paths)
	rest := firsts - segs[0].paths[0].Dist
	for _, pl := range segs[1:] {
		rest -= pl.paths[0].Dist
		next, cutDist, cut := refJoinStep(&sc.arena, current, pl.paths, ex.beam)
		current = next
		if cut {
			ex.beamBound = math.Min(ex.beamBound, cutDist+rest)
		}
		if len(current) == 0 {
			break
		}
	}
	ex.bound = math.Min(ex.bound, ex.beamBound)
	res.CandidatesGenerated += len(current)
	for _, c := range current[:min(len(current), k)] {
		if sc.resultSet.Add(c) {
			list, _ = insertTopK(list, c, k, 0)
		}
	}
	return list
}

// roundingDists mixes magnitudes so that sums round together: 1e16 + 1e-16
// is 1e16, and 1e16 + 1.5 rounds to 1e16 + 2, so two joins can tie although
// their prefixes come in the other order.
var roundingDists = []float64{0, 1e-16, 1.5, 2, 1e16, 1e16 + 2, 1e16 + 4}

// randomPairLists draws a reference sequence and, for each adjacent pair,
// distinct paths between its ends through a small shared vertex pool (so that
// many joins are not simple), in ascending Dist but not in ComparePaths order,
// as Yen hands them over.  mode%3 picks the Dists: small integers (ties),
// mixed magnitudes (rounding ties) or reals; an odd mode/3 swaps one pair of
// neighbours now and then, the rounding slip a pair list can show.
func randomPairLists(rng *rand.Rand, mode uint8) (seq []graph.VertexID, lists []pairList) {
	const pool = 12
	perm := rng.Perm(pool)
	for i := 0; i < 2+rng.Intn(3); i++ {
		seq = append(seq, graph.VertexID(perm[i]))
	}
	dist := func() float64 {
		switch mode % 3 {
		case 0:
			return float64(rng.Intn(4))
		case 1:
			return roundingDists[rng.Intn(len(roundingDists))]
		}
		return rng.Float64() * 10
	}
	for i := 0; i+1 < len(seq); i++ {
		a, b := seq[i], seq[i+1]
		var paths []graph.Path
		var seen graph.PathSet
		for n := rng.Intn(9); n > 0; n-- {
			verts := []graph.VertexID{a}
			for _, v := range rng.Perm(pool)[:rng.Intn(4)] {
				if u := graph.VertexID(v); u != a && u != b {
					verts = append(verts, u)
				}
			}
			p := graph.Path{Vertices: append(verts, b), Dist: dist()}
			if seen.Add(p) {
				paths = append(paths, p)
			}
		}
		slices.SortStableFunc(paths, compareDist)
		if mode/3%2 == 1 && len(paths) > 1 && rng.Intn(2) == 0 {
			j := rng.Intn(len(paths) - 1)
			paths[j], paths[j+1] = paths[j+1], paths[j]
		}
		lists = append(lists, pairList{paths: paths, k: len(paths) + rng.Intn(2)})
	}
	return seq, lists
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePathList(got, want []graph.Path) bool {
	return slices.EqualFunc(got, want, func(a, b graph.Path) bool { return a.Equal(b) && sameBits(a.Dist, b.Dist) })
}

// The best-first join keeps exactly what sorting the whole cross product
// keeps: the same paths in the same order with the same Dist bits, the same
// cut flag and Dist at every step, and so the same beamBound, bound and
// answer for the whole sequence.
func FuzzJoinMatchesCrossProduct(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		for mode := uint8(0); mode < 6; mode++ {
			f.Add(seed, mode)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		for c := 0; c < 20; c++ {
			seq, lists := randomPairLists(rng, mode)
			beam, k := 1+rng.Intn(8), 1+rng.Intn(5)

			// Step by step, from every list as the prefixes.
			sc := getEngineScratch()
			var ref vertexArena
			for i := 0; i+1 < len(lists); i++ {
				prefixes := slices.Clone(lists[i].paths)
				wantKept, wantCut, wantOK := refJoinStep(&ref, prefixes, lists[i+1].paths, beam)
				gotKept, gotCut, gotOK := sc.joinStep(prefixes, lists[i+1].paths, beam)
				if !samePathList(gotKept, wantKept) || gotOK != wantOK || !sameBits(gotCut, wantCut) {
					t.Fatalf("beam %d, %v x %v:\n got %v cut %v at %v\nwant %v cut %v at %v",
						beam, lists[i].paths, lists[i+1].paths, gotKept, gotOK, gotCut, wantKept, wantOK, wantCut)
				}
			}

			// The whole sequence, through the pair cache.
			want, wantEx, wantRes := joinSeq(seq, lists, beam, k, refJoin)
			got, gotEx, gotRes := joinSeq(seq, lists, beam, k, func(sc *engineScratch, ex *examinedSeq, list []graph.Path, k int, res *Result) []graph.Path {
				return (*Engine)(nil).join(sc, ex, list, k, 0, res)
			})
			if !samePathList(got, want) || !sameBits(gotEx.beamBound, wantEx.beamBound) || !sameBits(gotEx.bound, wantEx.bound) || gotRes.CandidatesGenerated != wantRes.CandidatesGenerated {
				t.Fatalf("seq %v, beam %d, k %d:\n got %v beamBound %v bound %v candidates %d\nwant %v beamBound %v bound %v candidates %d",
					seq, beam, k, got, gotEx.beamBound, gotEx.bound, gotRes.CandidatesGenerated, want, wantEx.beamBound, wantEx.bound, wantRes.CandidatesGenerated)
			}
			engineScratchPool.Put(sc)
		}
	})
}

// joinSeq runs one join along seq on a fresh scratch whose pair cache holds
// lists, and returns the answer and the examined sequence's bounds.
func joinSeq(seq []graph.VertexID, lists []pairList, beam, k int, join func(*engineScratch, *examinedSeq, []graph.Path, int, *Result) []graph.Path) ([]graph.Path, examinedSeq, Result) {
	sc := getEngineScratch()
	defer engineScratchPool.Put(sc)
	for i, pl := range lists {
		sc.pairCache[PairRequest{A: seq[i], B: seq[i+1]}] = pl
	}
	ex := examinedSeq{seq: seq, beam: beam}
	var res Result
	list := join(sc, &ex, nil, k, &res)
	for i := range list {
		list[i] = list[i].Clone() // the arena goes back to the pool
	}
	return list, ex, res
}

// BenchmarkJoin is one join along a reference path of six pairs, each with k
// partial paths, at the beam a query starts with: k = 3 (beam 7) and k = 8
// (beam 16).  Every pair's paths run through vertices of their own, so nearly
// every join is simple, as on a road network.
func BenchmarkJoin(b *testing.B) {
	for _, k := range []int{3, 8} {
		rng := rand.New(rand.NewSource(1))
		const pairs = 6
		seq := make([]graph.VertexID, pairs+1)
		for i := range seq {
			seq[i] = graph.VertexID(i)
		}
		sc := getEngineScratch()
		for i := 0; i < pairs; i++ {
			paths := make([]graph.Path, k)
			d := 10 + 5*rng.Float64()
			for j := range paths {
				verts := []graph.VertexID{seq[i]}
				for v := 0; v < 8; v++ {
					verts = append(verts, graph.VertexID(100*(i+1)+10*j+v))
				}
				paths[j] = graph.Path{Vertices: append(verts, seq[i+1]), Dist: d}
				d += rng.Float64()
			}
			sc.pairCache[PairRequest{A: seq[i], B: seq[i+1]}] = pairList{paths: paths, k: k}
		}
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var list []graph.Path
			var res Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.arena.reset()
				sc.resultSet.Reset()
				ex := examinedSeq{seq: seq, beam: beamWidth(k)}
				list = (*Engine)(nil).join(sc, &ex, list[:0], k, 0, &res)
			}
		})
	}
}
