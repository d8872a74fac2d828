// Package rpcbatch holds declarations only.  It exists because the benchmark
// ruler compiles against these names: cluster.NewBatchedRemoteProvider takes
// Options, and BatchedRemoteProvider.BatchStats returns Stats.  The provider
// ships each refine share straight to its worker, so nothing here queues,
// dedupes or memoizes pairs, and DedupHits and CacheHits always read 0.
package rpcbatch

import "time"

// Options configures a cluster.BatchedRemoteProvider.
type Options struct {
	// Observe, when non-nil, is called once per shipped share with the
	// number of pairs it carried and the round-trip latency of the worker
	// call (successful or not).  It runs on the share's goroutine and must
	// be safe for concurrent use and cheap.
	Observe func(pairs int, d time.Duration)
}

// Stats counts a provider's refine traffic.
type Stats struct {
	// Batches is the number of shares (worker calls) shipped.
	Batches int64
	// PairsSent is the number of pairs shipped across all shares.
	PairsSent int64
	// Enqueued is the number of pairs submitted; every one ships, so it
	// equals PairsSent.
	Enqueued int64
	// DedupHits and CacheHits always read 0.
	DedupHits int64
	CacheHits int64
	// Panics counts shares failed by a panic in the worker call; the stack
	// of each is in the process log.
	Panics int64
}
