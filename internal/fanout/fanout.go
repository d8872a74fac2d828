// Package fanout holds the repository's one job pool.
package fanout

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Do calls fn(i) once for every i in [0, n) on up to width goroutines and
// returns the number of lanes it used, min(width, n).  Callers write results
// into slots indexed by i, which keeps the output independent of width and
// scheduling.  width <= 1 runs everything on the calling goroutine; n == 0
// returns at once.
//
// A panic in fn on a lane goroutine is re-raised on the calling goroutine
// once every lane has finished, so whoever contains panics around the caller
// contains the lanes' too.
func Do(n, width int, fn func(i int)) (lanes int) {
	if n == 0 {
		return 0
	}
	lanes = max(min(width, n), 1)
	if lanes == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return lanes
	}
	var lanePanic atomic.Pointer[string]
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				msg := fmt.Sprintf("%v\n%s", r, debug.Stack())
				lanePanic.CompareAndSwap(nil, &msg)
			}
		}()
		fn(i)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < lanes; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if msg := lanePanic.Load(); msg != nil {
		panic("fanout: lane panicked: " + *msg)
	}
	return lanes
}
