//go:build race

package testutil

// RaceEnabled reports whether the binary was built with the race detector,
// under which the largest sweeps shrink to their -short sample.
const RaceEnabled = true
