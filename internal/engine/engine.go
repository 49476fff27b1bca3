// Package engine is the shared concurrent-execution substrate of the
// entity-matching engines: worker-count resolution, a parallel-for on
// a persistent work-stealing pool, a dedup worklist, and a
// lock-protected equivalence tracker with class-membership lists.
//
// Before this package existed, the sequential chase, EMMR, EMVC and the
// incremental engine each hand-rolled their own partitioning, worklist
// and class-tracking machinery. All four now run on these primitives,
// as does the parallel chase (internal/chase, EngineParallelChase),
// which is built directly on Parallel + Tracker.
package engine

import "runtime"

// DefaultWorkers is the ceiling for the default worker count: the
// paper's experiments default to p = 4, and small fixed parallelism
// keeps the simulated-cluster measurements comparable across machines.
const DefaultWorkers = 4

// Workers resolves a caller-supplied worker count: p >= 1 is taken as
// is; anything else defaults to GOMAXPROCS capped at DefaultWorkers,
// so a single-core environment does not pay goroutine overhead for
// parallelism it cannot use.
func Workers(p int) int {
	if p >= 1 {
		return p
	}
	if n := runtime.GOMAXPROCS(0); n < DefaultWorkers {
		if n < 1 {
			return 1
		}
		return n
	}
	return DefaultWorkers
}

// Parallel runs fn(i) for i in [0, n) across the given number of
// workers of the process-shared persistent pool (see pool.go): the
// index space splits into chunks spread round-robin over the
// participants (adjacent items spread over workers — candidate lists
// are sorted, and neighboring pairs tend to cost alike), and idle
// participants steal from busy ones' tails, so skewed loads balance
// instead of striding blindly. It degrades to a sequential inline loop
// when workers < 2 or the problem is trivially small, and returns when
// every call has. ob is the caller's instrument bundle — each layer
// threads its own handle (nil for uninstrumented) so coexisting
// matchers never share counters through a process global.
func Parallel(ob *Obs, workers, n int, fn func(i int)) {
	shared().Parallel(ob, workers, n, fn)
}
