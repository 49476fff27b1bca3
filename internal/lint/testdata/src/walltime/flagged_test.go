package walltime

import (
	"testing"
	"time"
)

// Verdicts on wall-clock comparisons: each is a finding.

func TestElapsedBound(t *testing.T) {
	start := time.Now()
	work()
	elapsed := time.Since(start)
	if elapsed > 10*time.Millisecond { // want "wall-clock comparison"
		t.Errorf("took %v", elapsed)
	}
}

func TestSpeedupRatio(t *testing.T) {
	var inc, full time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		work()
		inc += time.Since(start)
		start = time.Now()
		work()
		full += time.Now().Sub(start)
	}
	ratio := full.Seconds() / inc.Seconds()
	if ratio < 5 { // want "wall-clock comparison"
		t.Fatalf("speedup %.1f", ratio)
	}
}

func TestDeadlineInCondition(t *testing.T) {
	deadline := time.Now()
	if ok := work(); !ok || time.Until(deadline) < 0 { // want "wall-clock comparison"
		t.Fatal("late")
	}
}

func work() bool { return true }
