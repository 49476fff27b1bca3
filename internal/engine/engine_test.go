package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
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

func TestTrackerUnionMembers(t *testing.T) {
	tr := NewTracker(10)
	aff, changed := tr.Union(1, 2)
	if !changed || len(aff) != 2 {
		t.Fatalf("Union(1,2) = %v,%v", aff, changed)
	}
	if _, changed := tr.Union(2, 1); changed {
		t.Fatal("re-union reported change")
	}
	aff, changed = tr.Union(3, 1)
	if !changed || len(aff) != 3 {
		t.Fatalf("Union(3,1) affected %v, want 3 members", aff)
	}
	if !tr.Same(2, 3) {
		t.Fatal("transitivity lost")
	}
	snap := tr.Snapshot()
	tr.Union(4, 5)
	if snap.Same(4, 5) {
		t.Fatal("snapshot observed a later union")
	}
	if !tr.Relation().Same(4, 5) {
		t.Fatal("relation lost a union")
	}
}

func TestTrackerConcurrentUnions(t *testing.T) {
	const n = 256
	tr := NewTracker(n)
	Parallel(nil, 8, n-1, func(i int) {
		tr.Union(int32(i), int32(i+1))
	})
	if !tr.Same(0, n-1) {
		t.Fatal("chain of unions did not connect ends")
	}
	if got := tr.Relation().Classes(); got != 1 {
		t.Fatalf("classes = %d, want 1", got)
	}
}
