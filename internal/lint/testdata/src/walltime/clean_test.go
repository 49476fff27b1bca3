package walltime

import (
	"testing"
	"time"
)

// Wall-clock time that is only logged and verdicts on work done: none
// is a finding.

func TestLogsTimeAssertsWork(t *testing.T) {
	start := time.Now()
	steps := 0
	for i := 0; i < 4; i++ {
		steps++
	}
	elapsed := time.Since(start)
	t.Logf("%d steps in %v", steps, elapsed)
	if steps != 4 {
		t.Errorf("steps = %d", steps)
	}
}

func TestTimeBranchWithoutVerdict(t *testing.T) {
	start := time.Now()
	if time.Since(start) > time.Millisecond {
		t.Logf("slow machine")
	}
}

func TestConstantDurations(t *testing.T) {
	charged := 3 * time.Millisecond
	if charged != 3*time.Millisecond {
		t.Errorf("charged %v", charged)
	}
}
