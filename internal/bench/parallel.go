package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"graphkeys/internal/chase"
	"graphkeys/internal/gen"
	"graphkeys/internal/match"
)

// This file benchmarks the parallel chase (EngineParallelChase)
// against the sequential reference on the embench reference graph: the
// end-to-end speedup the shard-partitioned store plus worker-pool
// chase buys, and the identity of the two results (the differential
// the acceptance tests also assert). CI runs it as a smoke and
// publishes the JSON report as the BENCH_parallel_chase.json artifact.

// ParallelChaseRun is one worker-count measurement.
type ParallelChaseRun struct {
	P         int     `json:"p"`
	Millis    float64 `json:"ms"`
	Speedup   float64 `json:"speedup"`
	Identical bool    `json:"identical"`
}

// ParallelChaseReport is the machine-readable outcome of the
// parallel-chase experiment.
type ParallelChaseReport struct {
	Dataset    string             `json:"dataset"`
	Triples    int                `json:"triples"`
	Entities   int                `json:"entities"`
	Candidates int                `json:"candidates"`
	Pairs      int                `json:"pairs"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Sweep      bool               `json:"full_sweep"`
	SeqMillis  float64            `json:"seq_ms"`
	Runs       []ParallelChaseRun `json:"runs"`
}

// JSON renders the report.
func (r *ParallelChaseReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParallelChaseExp measures the parallel chase at each worker count
// against the sequential chase on the given dataset, best of three
// runs each. mo.FullSweep forces the quadratic candidate sweep, which
// is the check-dominated serving workload the worker pool targets (the
// value-indexed path spends most of its time generating candidates,
// not checking them).
func ParallelChaseExp(ds Dataset, cfg BuildConfig, ps []int, mo match.Options) (*Table, *ParallelChaseReport, error) {
	w, err := Build(ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	seq, seqDur, err := bestOf(3, w, chase.Options{Match: mo})
	if err != nil {
		return nil, nil, err
	}
	rep := &ParallelChaseReport{
		Dataset:    ds.String(),
		Triples:    w.Graph.NumTriples(),
		Entities:   w.Graph.NumEntities(),
		Candidates: seq.Candidates,
		Pairs:      len(seq.Pairs),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Sweep:      mo.FullSweep,
		SeqMillis:  ms(seqDur),
	}
	table := &Table{
		Title:  fmt.Sprintf("Parallel chase vs sequential (%s, |G|=%d, L=%d, GOMAXPROCS=%d)", ds, rep.Triples, rep.Candidates, rep.GOMAXPROCS),
		Header: []string{"p", "time", "speedup", "identical"},
		Rows:   [][]string{{"seq", fmtDur(seqDur), "1.00x", "-"}},
	}
	for _, p := range ps {
		par, parDur, err := bestOf(3, w, chase.Options{Match: mo, Parallelism: p})
		if err != nil {
			return nil, nil, err
		}
		run := ParallelChaseRun{
			P:         p,
			Millis:    ms(parDur),
			Speedup:   float64(seqDur) / float64(parDur),
			Identical: samePairs(seq.Pairs, par.Pairs),
		}
		rep.Runs = append(rep.Runs, run)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", p), fmtDur(parDur),
			fmt.Sprintf("%.2fx", run.Speedup), fmt.Sprintf("%v", run.Identical),
		})
	}
	return table, rep, nil
}

// bestOf runs the chase n times and keeps the fastest (the usual
// benchmarking guard against scheduler noise).
func bestOf(n int, w *gen.Workload, opts chase.Options) (*chase.Result, time.Duration, error) {
	var best *chase.Result
	bestDur := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		res, err := chase.Run(w.Graph, w.Keys, opts)
		if err != nil {
			return nil, 0, err
		}
		if d := time.Since(start); d < bestDur {
			best, bestDur = res, d
		}
	}
	return best, bestDur, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
