package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"graphkeys/internal/obs"
)

func TestWorkers(t *testing.T) {
	for _, p := range []int{1, 2, 7, 16} {
		if got := Workers(p); got != p {
			t.Errorf("Workers(%d) = %d, want %d", p, got, p)
		}
	}
	def := Workers(0)
	if def < 1 || def > DefaultWorkers {
		t.Errorf("Workers(0) = %d, want in [1, %d]", def, DefaultWorkers)
	}
	if n := runtime.GOMAXPROCS(0); n < DefaultWorkers && def != n {
		t.Errorf("Workers(0) = %d on GOMAXPROCS=%d, want %d", def, n, n)
	}
	if Workers(-3) != def {
		t.Errorf("Workers(-3) = %d, want default %d", Workers(-3), def)
	}
}

// Every index must run exactly once, for any worker/size combination,
// including more workers than indices.
func TestParallelCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 17, 64} {
			hits := make([]atomic.Int32, n)
			Parallel(nil, workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, got)
				}
			}
		}
	}
}

// The same coverage on the larger sizes, where the per-call pool of
// workers Parallel starts splits the range into many chunks: every index
// runs exactly once, also with more workers than indices.
func TestPoolParallelCoversAllIndices(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 0}, {1, 1}, {2, 1}, {2, 2}, {2, 100},
		{4, 3}, {4, 1000}, {8, 17}, {16, 1000}, {100, 257}, {2000, 1000},
	} {
		counts := make([]atomic.Int32, tc.n)
		Parallel(nil, tc.workers, tc.n, func(i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, got)
			}
		}
	}
}

// A Parallel nested inside another's items must complete: every call
// brings its own goroutines, so the inner calls never wait on the outer
// one's.
func TestParallelNestedNoDeadlock(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var total atomic.Int64
		Parallel(nil, 4, 8, func(i int) {
			Parallel(nil, 4, 8, func(j int) {
				total.Add(1)
			})
		})
		if got := total.Load(); got != 64 {
			t.Errorf("nested fan-out ran %d inner items, want 64", got)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested Parallel deadlocked")
	}
}

// When the per-index function is pure and writes only its own slot,
// the result is independent of the worker count and identical run to
// run.
func TestParallelDeterministicWrites(t *testing.T) {
	ref := make([]int, 1000)
	for i := range ref {
		ref[i] = i * i
	}
	for _, workers := range []int{1, 2, 4, 8} {
		out := make([]int, len(ref))
		Parallel(nil, workers, len(out), func(i int) {
			out[i] = i * i
		})
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], ref[i])
			}
		}
	}
}

// The bundle counts calls and items, and the active-worker gauge is
// back at zero once a call returns.
func TestParallelObs(t *testing.T) {
	ob := NewObs(obs.NewRegistry())
	Parallel(ob, 4, 100, func(int) {})
	Parallel(ob, 1, 7, func(int) {})
	Parallel(ob, 4, 0, func(int) {})
	if c, items := ob.ParallelCalls.Value(), ob.ParallelItems.Value(); c != 2 || items != 107 {
		t.Fatalf("calls=%d items=%d, want 2 and 107", c, items)
	}
	if a := ob.ActiveWorkers.Value(); a != 0 {
		t.Fatalf("active workers = %d after every call returned", a)
	}
}

func TestWorklistDedupAndFIFO(t *testing.T) {
	w := NewWorklist[int]()
	if !w.Push(1) || !w.Push(2) || w.Push(1) {
		t.Fatal("push dedup broken")
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	if x, ok := w.Pop(); !ok || x != 1 {
		t.Fatalf("Pop = %d,%v, want 1,true", x, ok)
	}
	// Re-push after pop is allowed.
	if !w.Push(1) {
		t.Fatal("re-push after pop rejected")
	}
	for _, want := range []int{2, 1} {
		if x, ok := w.Pop(); !ok || x != want {
			t.Fatalf("Pop = %d,%v, want %d,true", x, ok, want)
		}
	}
	if _, ok := w.Pop(); ok {
		t.Fatal("Pop on empty reported ok")
	}
}
