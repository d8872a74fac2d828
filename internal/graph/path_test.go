package graph

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPathBasics(t *testing.T) {
	p := Path{Vertices: []VertexID{1, 2, 3}, Dist: 7}
	if p.Source() != 1 || p.Target() != 3 {
		t.Errorf("Source/Target = %d/%d, want 1/3", p.Source(), p.Target())
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	if !p.IsSimple() {
		t.Errorf("path should be simple")
	}
	if !p.Contains(2) || p.Contains(9) {
		t.Errorf("Contains misbehaves")
	}
	empty := Path{}
	if empty.Source() != NoVertex || empty.Target() != NoVertex || empty.Len() != 0 {
		t.Errorf("empty path accessors wrong")
	}
	if empty.String() != "<empty path>" {
		t.Errorf("empty String = %q", empty.String())
	}
	if !strings.Contains(p.String(), "1->2->3") {
		t.Errorf("String = %q", p.String())
	}
}

func TestPathSimpleDetection(t *testing.T) {
	p := Path{Vertices: []VertexID{1, 2, 1}}
	if p.IsSimple() {
		t.Errorf("path with repeated vertex should not be simple")
	}
}

func TestPathCloneIndependence(t *testing.T) {
	p := Path{Vertices: []VertexID{1, 2, 3}, Dist: 5}
	q := p.Clone()
	q.Vertices[0] = 9
	if p.Vertices[0] != 1 {
		t.Errorf("Clone must copy vertices")
	}
}

func TestPathEqual(t *testing.T) {
	a := Path{Vertices: []VertexID{1, 2, 3}, Dist: 5}
	b := Path{Vertices: []VertexID{1, 2, 3}, Dist: 99}
	c := Path{Vertices: []VertexID{1, 2, 4}}
	d := Path{Vertices: []VertexID{1, 2}}
	if !a.Equal(b) {
		t.Errorf("paths with same sequence should be Equal regardless of Dist")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Errorf("different sequences should not be Equal")
	}
}

func TestPathConcat(t *testing.T) {
	a := Path{Vertices: []VertexID{1, 2, 3}, Dist: 4}
	b := Path{Vertices: []VertexID{3, 5}, Dist: 2}
	joined, err := a.Concat(b)
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	want := Path{Vertices: []VertexID{1, 2, 3, 5}, Dist: 6}
	if !joined.Equal(want) || joined.Dist != 6 {
		t.Errorf("Concat = %v, want %v", joined, want)
	}
	if _, err := a.Concat(Path{Vertices: []VertexID{9, 10}}); err == nil {
		t.Errorf("expected error for mismatched endpoints")
	}
	// Concat with empty paths.
	if got, err := (Path{}).Concat(a); err != nil || !got.Equal(a) {
		t.Errorf("empty.Concat(a) = %v, %v", got, err)
	}
	if got, err := a.Concat(Path{}); err != nil || !got.Equal(a) {
		t.Errorf("a.Concat(empty) = %v, %v", got, err)
	}
}

func TestPathEvalDistAndValidate(t *testing.T) {
	g := buildPaperGraph(t)
	p := Path{Vertices: []VertexID{0, 1, 4}}
	if d := p.EvalDist(g.Snapshot()); d != 6 {
		t.Errorf("EvalDist = %g, want 6", d)
	}
	if err := p.Validate(g.Snapshot()); err != nil {
		t.Errorf("Validate: %v", err)
	}
	bad := Path{Vertices: []VertexID{0, 18}}
	if d := bad.EvalDist(g.Snapshot()); !math.IsInf(d, 1) {
		t.Errorf("EvalDist of invalid path = %g, want +Inf", d)
	}
	if err := bad.Validate(g.Snapshot()); err == nil {
		t.Errorf("Validate should fail for missing edge")
	}
	loop := Path{Vertices: []VertexID{0, 1, 0}}
	if err := loop.Validate(g.Snapshot()); err == nil {
		t.Errorf("Validate should fail for non-simple path")
	}
}

func TestComparePaths(t *testing.T) {
	a := Path{Vertices: []VertexID{1, 2}, Dist: 1}
	b := Path{Vertices: []VertexID{1, 3}, Dist: 2}
	if ComparePaths(a, b) != -1 || ComparePaths(b, a) != 1 {
		t.Errorf("distance ordering wrong")
	}
	c := Path{Vertices: []VertexID{1, 2}, Dist: 2}
	d := Path{Vertices: []VertexID{1, 3}, Dist: 2}
	if ComparePaths(c, d) != -1 {
		t.Errorf("tie should break lexicographically")
	}
	if ComparePaths(c, c) != 0 {
		t.Errorf("identical paths should compare 0")
	}
	prefix := Path{Vertices: []VertexID{1, 2}, Dist: 2}
	longer := Path{Vertices: []VertexID{1, 2, 3}, Dist: 2}
	if ComparePaths(prefix, longer) != -1 || ComparePaths(longer, prefix) != 1 {
		t.Errorf("shorter prefix should order first on ties")
	}
}

func TestPathKey(t *testing.T) {
	a := Path{Vertices: []VertexID{1, 2, 3}}
	b := Path{Vertices: []VertexID{1, 2, 3}}
	c := Path{Vertices: []VertexID{1, 23}}
	if PathKey(a) != PathKey(b) {
		t.Errorf("same sequences must have same key")
	}
	if PathKey(a) == PathKey(c) {
		t.Errorf("different sequences must have different keys")
	}
}

// Property: ComparePaths is antisymmetric and Equal paths compare to 0.
func TestPropertyComparePathsAntisymmetric(t *testing.T) {
	f := func(av, bv []uint8, ad, bd float64) bool {
		a := Path{Dist: math.Abs(ad)}
		b := Path{Dist: math.Abs(bd)}
		for _, v := range av {
			a.Vertices = append(a.Vertices, VertexID(v))
		}
		for _, v := range bv {
			b.Vertices = append(b.Vertices, VertexID(v))
		}
		return ComparePaths(a, b) == -ComparePaths(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Concat preserves total edge count and distance additivity.
func TestPropertyConcatAdditive(t *testing.T) {
	f := func(n1, n2 uint8, d1, d2 float64) bool {
		if n1 == 0 || n2 == 0 {
			return true
		}
		d1, d2 = math.Abs(d1), math.Abs(d2)
		if math.IsInf(d1, 0) || math.IsInf(d2, 0) || math.IsNaN(d1) || math.IsNaN(d2) {
			return true
		}
		a := Path{Dist: d1}
		for i := uint8(0); i < n1; i++ {
			a.Vertices = append(a.Vertices, VertexID(i))
		}
		b := Path{Dist: d2}
		for i := uint8(0); i < n2; i++ {
			b.Vertices = append(b.Vertices, VertexID(n1-1+i))
		}
		j, err := a.Concat(b)
		if err != nil {
			return false
		}
		return j.Len() == a.Len()+b.Len() && j.Dist == d1+d2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
