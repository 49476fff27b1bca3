package bench

import "testing"

// TestObsOverhead pins the instrumentation budget: the fully
// instrumented write path and repair pass must stay within 5% of the
// bare runs, as the median ratio of interleaved bare/instrumented
// pairs. Timing on shared runners is noisy even so, and a failing
// measurement is retried a couple of times before it counts.
func TestObsOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector multiplies atomic costs; overhead budget holds for production builds only")
	}
	// A larger-than-smoke workload: `go test ./...` runs packages
	// concurrently, so sub-10ms measurements are at the mercy of the
	// other packages' scheduling.
	cfg := DefaultBuild()
	cfg.Scale = 2.0
	const limitPct = 5.0
	const attempts = 3
	var rep *ObsOverheadReport
	for attempt := 1; ; attempt++ {
		var err error
		_, rep, err = ObsOverheadExp(SyntheticDS, cfg, 4, 256)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, r := range rep.Runs {
			if r.OverheadPct > worst {
				worst = r.OverheadPct
			}
		}
		if worst <= limitPct {
			break
		}
		if attempt == attempts {
			for _, r := range rep.Runs {
				t.Errorf("%s: instrumented %.1fms vs bare %.1fms = %+.1f%% overhead (limit %.0f%%)",
					r.Workload, r.InstrMillis, r.BareMillis, r.OverheadPct, limitPct)
			}
			return
		}
		t.Logf("attempt %d: worst overhead %+.1f%% > %.0f%%, retrying", attempt, worst, limitPct)
	}
	for _, r := range rep.Runs {
		t.Logf("%s: bare %.1fms, instrumented %.1fms, %+.1f%%", r.Workload, r.BareMillis, r.InstrMillis, r.OverheadPct)
	}
}
