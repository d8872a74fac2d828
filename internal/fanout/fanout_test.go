package fanout

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestDo pins the package's one invariant: every index runs exactly once and
// writes only its own slot, whatever the width — including n far above it.
func TestDo(t *testing.T) {
	for _, tc := range []struct{ n, width, lanes int }{
		{0, 4, 0},
		{0, 1, 0},
		{5, 0, 1},
		{5, 1, 1},
		{5, -3, 1},
		{1, 4, 1},
		{2, 8, 2},
		{5, 4, 4},
		{3, 3, 3},
		{10000, 4, 4},
	} {
		calls := make([]atomic.Int32, tc.n)
		lanes := Do(tc.n, tc.width, func(i int) { calls[i].Add(1) })
		if lanes != tc.lanes {
			t.Errorf("Do(%d, %d): %d lanes, want %d", tc.n, tc.width, lanes, tc.lanes)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("Do(%d, %d): index %d ran %d times", tc.n, tc.width, i, c)
			}
		}
	}
}

// TestDoReraisesLanePanic requires a panic on a lane goroutine to surface on
// the caller (where a server can contain it) after every other index ran.
func TestDoReraisesLanePanic(t *testing.T) {
	var ran atomic.Int64
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lane panic was swallowed")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "boom") {
			t.Fatalf("re-raised panic %v does not carry the cause", r)
		}
		if ran.Load() != 7 {
			t.Fatalf("%d of 7 healthy indices ran", ran.Load())
		}
	}()
	Do(8, 4, func(i int) {
		if i == 3 {
			panic("boom")
		}
		ran.Add(1)
	})
}
