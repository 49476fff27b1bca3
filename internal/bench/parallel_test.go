package bench

import (
	"runtime"
	"testing"

	"graphkeys/internal/match"
)

// TestParallelChaseSmoke runs the parallel-chase experiment at a small
// scale: results must be identical to the sequential chase at every
// worker count, and on a machine with enough cores the 4-worker run
// must show a real end-to-end speedup (the acceptance target is 2x on
// 4 workers; the test keeps a margin for noisy shared runners).
func TestParallelChaseSmoke(t *testing.T) {
	cfg := DefaultBuild()
	cfg.Scale = 0.6
	_, rep, err := ParallelChaseExp(SyntheticDS, cfg, []int{2, 4}, match.Options{FullSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 {
		t.Fatal("reference workload identified nothing")
	}
	var fourWorker *ParallelChaseRun
	for i := range rep.Runs {
		if !rep.Runs[i].Identical {
			t.Fatalf("p=%d: parallel chase diverged from sequential", rep.Runs[i].P)
		}
		if rep.Runs[i].P == 4 {
			fourWorker = &rep.Runs[i]
		}
	}
	if runtime.GOMAXPROCS(0) < 4 || runtime.NumCPU() < 4 {
		t.Skipf("speedup assertion needs >= 4 CPUs (have GOMAXPROCS=%d, NumCPU=%d); measured %.2fx at p=4",
			runtime.GOMAXPROCS(0), runtime.NumCPU(), speedupOrZero(fourWorker))
	}
	if fourWorker == nil {
		t.Fatal("no 4-worker run")
	}
	if fourWorker.Speedup < 1.5 {
		t.Errorf("4-worker speedup %.2fx, want >= 1.5x (acceptance target 2x; seq %.1fms, par %.1fms)",
			fourWorker.Speedup, rep.SeqMillis, fourWorker.Millis)
	}
}

func speedupOrZero(r *ParallelChaseRun) float64 {
	if r == nil {
		return 0
	}
	return r.Speedup
}
