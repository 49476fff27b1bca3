package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"graphkeys/internal/engine"
	"graphkeys/internal/inc"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
)

// This file measures the cost of the observability substrate: the
// same workload runs bare (no registry, every instrument handle nil)
// and fully instrumented (metrics registered at every layer plus the
// phase tracer), and the report is the relative slowdown. The
// instruments are atomics behind nil-checked handles, so the budget
// is tight: the write path and the repair pass should each stay
// within a few percent.

// ObsOverheadRun is one workload's bare-vs-instrumented measurement:
// each side's median time, and the median of the paired ratios as the
// overhead.
type ObsOverheadRun struct {
	Workload    string  `json:"workload"`
	BareMillis  float64 `json:"bare_ms"`
	InstrMillis float64 `json:"instrumented_ms"`
	OverheadPct float64 `json:"overhead_pct"`
}

// ObsOverheadReport is the machine-readable outcome
// (BENCH_obs_overhead.json in CI).
type ObsOverheadReport struct {
	Dataset    string           `json:"dataset"`
	Triples    int              `json:"triples"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Runs       []ObsOverheadRun `json:"runs"`
}

// JSON renders the report.
func (r *ObsOverheadReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// obsOverheadWorkload runs the workload once and reports its wall
// time. instrumented wires every layer's instruments into a fresh
// registry; bare leaves every hook nil — the handles are threaded
// per-run (no process globals), so runs can't leak into each other.
func obsOverheadWorkload(ds Dataset, cfg BuildConfig, p int, merged bool, nDeltas int, instrumented bool) (time.Duration, error) {
	w, err := Build(ds, cfg)
	if err != nil {
		return 0, err
	}
	deltas := repairDeltas(w.Graph, nDeltas)
	opts := inc.Options{Parallelism: p}
	if instrumented {
		reg := obs.NewRegistry()
		w.Graph.RegisterObs(reg)
		opts.Match.Obs = match.NewObs(reg)
		opts.Match.Eng = engine.NewObs(reg)
		opts.Obs = inc.RegisterObs(reg)
		opts.Trace = obs.NewTracer(256)
	}
	e, err := inc.New(w.Graph, w.Keys, opts)
	if err != nil {
		return 0, err
	}
	runtime.GC() // the build's garbage is not the workload's to collect
	start := time.Now()
	if merged {
		// Repair-dominated: the whole churn batch as one maintenance
		// pass.
		if _, _, err := e.ApplyAll(deltas, 1); err != nil {
			return 0, err
		}
	} else {
		// Write-path-dominated: one pass per delta.
		for _, d := range deltas {
			if _, _, err := e.Apply(d); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// ObsOverheadExp measures instrumentation overhead on the write path
// (per-delta Apply stream) and the repair pass (one merged ApplyAll).
func ObsOverheadExp(ds Dataset, cfg BuildConfig, p, nDeltas int) (*Table, *ObsOverheadReport, error) {
	probe, err := Build(ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &ObsOverheadReport{
		Dataset:    ds.String(),
		Triples:    probe.Graph.NumTriples(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	table := &Table{
		Title: fmt.Sprintf("Observability overhead: %d deltas, p=%d (%s, |G|=%d)",
			nDeltas, p, ds, rep.Triples),
		Header: []string{"workload", "bare", "instrumented", "overhead"},
	}

	// Bare and instrumented runs pair up, alternating which side goes
	// first, and the overhead is the median of the pairs' own ratios:
	// whatever else the machine is doing (other test packages, a
	// co-tenant) slows both runs of a pair alike, where the best of
	// each side's block compared two runs that never shared a moment.
	// One ratio spreads by more than the budget it is held to (a
	// quarter of them lie 5 points or more to either side of the median
	// on a 2-core box, at any run length), so there are enough pairs
	// for their median to be known to about a point.
	const pairs = 101
	measure := func(merged bool) (bare, instr time.Duration, ratio float64, err error) {
		var ratios []float64
		var sides [2][]time.Duration
		for i := 0; i < pairs; i++ {
			var d [2]time.Duration
			for _, side := range [2]int{i % 2, 1 - i%2} {
				if d[side], err = obsOverheadWorkload(ds, cfg, p, merged, nDeltas, side == 1); err != nil {
					return 0, 0, 0, err
				}
				sides[side] = append(sides[side], d[side])
			}
			ratios = append(ratios, float64(d[1])/float64(d[0]))
		}
		slices.Sort(ratios)
		slices.Sort(sides[0])
		slices.Sort(sides[1])
		return sides[0][pairs/2], sides[1][pairs/2], ratios[pairs/2], nil
	}

	for _, wl := range []struct {
		name   string
		merged bool
	}{
		{"writepath", false},
		{"repair", true},
	} {
		bare, instr, ratio, err := measure(wl.merged)
		if err != nil {
			return nil, nil, err
		}
		r := ObsOverheadRun{
			Workload:    wl.name,
			BareMillis:  ms(bare),
			InstrMillis: ms(instr),
			OverheadPct: (ratio - 1) * 100,
		}
		rep.Runs = append(rep.Runs, r)
		table.Rows = append(table.Rows, []string{
			wl.name, fmtDur(bare), fmtDur(instr), fmt.Sprintf("%+.1f%%", r.OverheadPct),
		})
	}
	return table, rep, nil
}
