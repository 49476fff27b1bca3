// Package engine is the shared concurrent-execution substrate of the
// entity-matching engines: worker-count resolution, a parallel-for and
// a dedup worklist.
//
// Parallel is the repository's one executor and holds its one go
// statement (TestOneGoStatement). The parallel chase (internal/chase),
// EMMR's rounds and EMVC's supersteps fan their work out on it and
// union into an eqrel.Eq between calls, reading each merged class off
// its member ring, and EMVC builds its product graph on it. The
// candidate set L is generated on it too, in ranges of the keyed
// entities cut by Chunks (match.CandidateRanges): the parallel chase
// checks each range's pairs on the worker that generated them, and
// EMMR and EMVC collect the ranges in order.
// The incremental engine drains its repairs from a Worklist on the
// delta's own goroutine; Parallel fans out only the engines' candidate
// checks and neighbourhood scans.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the ceiling for the default worker count: the
// paper's experiments default to p = 4, and small fixed parallelism
// keeps the measurements comparable across machines.
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

// chunksPerWorker sets the claim size: each participant takes about
// this many chunks of a call, so one that draws slow items finishes
// late by a fraction of its share while the others keep claiming.
const chunksPerWorker = 8

// Parallel runs fn(i) for every i in [0, n) and returns when every
// call has. workers is clamped to n, and below 2 the loop runs inline
// on the caller. Otherwise workers-1 fresh goroutines and the caller
// claim chunks of max(1, n/(8·workers)) consecutive indices from one
// atomic counter and meet at a WaitGroup. No goroutine is shared with
// another call or outlives this one, so a Parallel nested inside fn
// needs no rule to make progress. ob is the caller's instrument bundle
// (nil for uninstrumented), so coexisting matchers never share counters
// through a process global.
func Parallel(ob *Obs, workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if ob == nil {
		ob = new(Obs)
	}
	ob.ParallelCalls.Inc()
	ob.ParallelItems.Add(int64(n))
	active := ob.ActiveWorkers
	workers = min(workers, n)
	if workers < 2 {
		active.Inc()
		for i := 0; i < n; i++ {
			fn(i)
		}
		active.Dec()
		return
	}
	chunk := max(1, n/(chunksPerWorker*workers))
	var next atomic.Int64
	claim := func() {
		active.Inc()
		defer active.Dec()
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+chunk, n); i++ {
				fn(i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// Chunks is how many consecutive ranges a caller that keeps scratch or
// output per range splits n items into for a Parallel on workers:
// chunksPerWorker per worker, as Parallel claims its own, and at most
// n. The ranges, ChunkRange(c, Chunks(workers, n), n) for chunk c,
// concatenate in order.
func Chunks(workers, n int) int { return min(n, max(workers, 1)*chunksPerWorker) }

// ChunkRange is chunk c's range [lo, hi) of n items split into k.
func ChunkRange(c, k, n int) (lo, hi int) { return c * n / k, (c + 1) * n / k }
