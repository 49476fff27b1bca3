// Command embench regenerates the experimental study of "Keys for
// Graphs" (§6): every figure panel of Fig. 8, Table 2, and the
// optimization-effectiveness reports, printing the same rows/series the
// paper reports (absolute times are this machine's, not the paper's
// EC2 cluster; the shapes are the reproduction target).
//
// Usage:
//
//	embench                 # the full suite at the default size
//	embench -quick          # a fast smoke-sized run
//	embench -exp fig8a      # one experiment
//	embench -csv            # machine-readable output
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"

	"graphkeys/internal/bench"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all | fig8a..fig8l | table2 | ablations | parallelchase | writepath | repair | groupcommit | obsoverhead | serve")
		quick   = flag.Bool("quick", false, "smoke-sized datasets")
		csv     = flag.Bool("csv", false, "CSV output")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor")
		seed    = flag.Int64("seed", 1, "random seed")
		jsonOut = flag.String("jsonout", "", "parallelchase: write the JSON report to this file")

		metricsAddr = flag.String("metrics", "", "serve engine metrics and pprof on this address (e.g. :8080)")
	)
	flag.Parse()
	serveMetrics(*metricsAddr)

	cfg := bench.DefaultBuild()
	cfg.Seed = *seed
	cfg.Scale = *scale
	ps := []int{4, 8, 12, 16, 20}
	scales := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	cs := []int{1, 2, 3, 4, 5}
	dsw := []int{1, 2, 3, 4, 5}
	if *quick {
		cfg.Scale = 0.3
		ps = []int{2, 4}
		scales = []float64{0.2, 0.3}
		cs = []int{1, 2}
		dsw = []int{1, 2}
	}

	type runner func() (*bench.Table, error)
	suite := []struct {
		name string
		run  runner
	}{
		{"fig8a", func() (*bench.Table, error) { return bench.Exp1VaryP(bench.GoogleDS, cfg, ps) }},
		{"fig8b", func() (*bench.Table, error) { return bench.Exp2VaryG(bench.GoogleDS, cfg, scales, 4) }},
		{"fig8c", func() (*bench.Table, error) { return bench.Exp3VaryC(bench.GoogleDS, cfg, cs, 4) }},
		{"fig8d", func() (*bench.Table, error) { return bench.Exp3VaryD(bench.GoogleDS, cfg, dsw, 4) }},
		{"fig8e", func() (*bench.Table, error) { return bench.Exp1VaryP(bench.DBpediaDS, cfg, ps) }},
		{"fig8f", func() (*bench.Table, error) { return bench.Exp2VaryG(bench.DBpediaDS, cfg, scales, 4) }},
		{"fig8g", func() (*bench.Table, error) { return bench.Exp3VaryC(bench.DBpediaDS, cfg, cs, 4) }},
		{"fig8h", func() (*bench.Table, error) { return bench.Exp3VaryD(bench.DBpediaDS, cfg, dsw, 4) }},
		{"fig8i", func() (*bench.Table, error) { return bench.Exp1VaryP(bench.SyntheticDS, cfg, ps) }},
		{"fig8j", func() (*bench.Table, error) { return bench.Exp2VaryG(bench.SyntheticDS, cfg, scales, 4) }},
		{"fig8k", func() (*bench.Table, error) { return bench.Exp3VaryC(bench.SyntheticDS, cfg, cs, 4) }},
		{"fig8l", func() (*bench.Table, error) { return bench.Exp3VaryD(bench.SyntheticDS, cfg, dsw, 4) }},
		{"table2", func() (*bench.Table, error) { return bench.Table2(cfg, 4) }},
		{"ablations", func() (*bench.Table, error) { return bench.Ablations(bench.SyntheticDS, cfg, 4) }},
		{"cluster", func() (*bench.Table, error) { return bench.ClusterComparison(bench.SyntheticDS, cfg, 4) }},
		{"parallelchase", func() (*bench.Table, error) {
			// The parallel-chase speedup experiment wants a
			// check-dominated workload: a larger graph than the figure
			// panels, full candidate sweep.
			pcfg := cfg
			if *scale == 1.0 && !*quick {
				pcfg.Scale = 4.0
			}
			t, rep, err := bench.ParallelChaseExp(bench.SyntheticDS, pcfg, []int{2, 4, 8}, match.Options{FullSweep: true})
			if err != nil {
				return nil, err
			}
			if *jsonOut != "" {
				data, err := rep.JSON()
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "embench: wrote %s\n", *jsonOut)
			}
			return t, nil
		}},
		{"writepath", func() (*bench.Table, error) {
			// The write-throughput experiment: a stream of independent
			// small deltas, per-delta Apply vs batched concurrent
			// ApplyBatch at 1/2/4/8 writers, plus the allocating-writer
			// leg (durable group commit, fresh names per delta) with
			// plan-retry accounting and phase means in the JSON report.
			wcfg := cfg
			nDeltas, batch := 256, 32
			if *quick {
				nDeltas, batch = 64, 16
			}
			t, rep, err := bench.WritePathExp(bench.SyntheticDS, wcfg, []int{1, 2, 4, 8}, nDeltas, batch)
			if err != nil {
				return nil, err
			}
			if *jsonOut != "" {
				data, err := rep.JSON()
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "embench: wrote %s\n", *jsonOut)
			}
			return t, nil
		}},
		{"repair", func() (*bench.Table, error) {
			// The parallel-repair experiment: one merged churn batch
			// through the incremental engine at p = 1, 2, 4, 8; wants a
			// larger graph than the figure panels so the maintenance
			// pass dominates.
			rcfg := cfg
			if *scale == 1.0 && !*quick {
				rcfg.Scale = 4.0
			}
			nDeltas := 384
			if *quick {
				nDeltas = 48
			}
			t, rep, err := bench.RepairExp(bench.SyntheticDS, rcfg, []int{2, 4, 8}, nDeltas)
			if err != nil {
				return nil, err
			}
			// The combined report also carries the group-commit runs,
			// so one artifact (BENCH_repair.json) covers both PR-5
			// experiments — but only when this experiment was asked
			// for by name: under -exp all the dedicated groupcommit
			// entry below runs the (fsync-heavy) measurement once.
			if !strings.EqualFold(*exp, "all") {
				gdir, err := os.MkdirTemp("", "embench-groupcommit-*")
				if err != nil {
					return nil, err
				}
				defer os.RemoveAll(gdir)
				gDeltas := 512
				if *quick {
					gDeltas = 128
				}
				gt, gruns, err := bench.GroupCommitExp(gdir, []int{2, 4, 8}, gDeltas)
				if err != nil {
					return nil, err
				}
				rep.GroupCommit = gruns
				if *csv {
					fmt.Printf("# groupcommit\n%s\n", gt.CSV())
				} else {
					gt.Print(os.Stdout)
				}
			}
			if *jsonOut != "" {
				data, err := rep.JSON()
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "embench: wrote %s\n", *jsonOut)
			}
			return t, nil
		}},
		{"groupcommit", func() (*bench.Table, error) {
			gdir, err := os.MkdirTemp("", "embench-groupcommit-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(gdir)
			nDeltas := 512
			if *quick {
				nDeltas = 128
			}
			t, runs, err := bench.GroupCommitExp(gdir, []int{1, 2, 4, 8}, nDeltas)
			if err != nil {
				return nil, err
			}
			if *jsonOut != "" {
				rep := &bench.RepairReport{GOMAXPROCS: runtime.GOMAXPROCS(0), GroupCommit: runs}
				data, err := rep.JSON()
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "embench: wrote %s\n", *jsonOut)
			}
			return t, nil
		}},
		{"serve", func() (*bench.Table, error) {
			// The serving layer: latency percentiles and QPS per
			// endpoint while concurrent readers and /apply writers share
			// one matcher over real HTTP; CI publishes the report as
			// BENCH_serve.json.
			nSeed, nOps, readers, writers := 2000, 64, 4, 2
			if *quick {
				nSeed, nOps, readers, writers = 500, 16, 2, 1
			}
			t, rep, err := bench.ServeExp(nSeed, nOps, readers, writers)
			if err != nil {
				return nil, err
			}
			if *jsonOut != "" {
				data, err := rep.JSON()
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "embench: wrote %s\n", *jsonOut)
			}
			return t, nil
		}},
		{"obsoverhead", func() (*bench.Table, error) {
			// The instrumentation budget: bare vs fully instrumented
			// write-path and repair runs; CI publishes the report as
			// BENCH_obs_overhead.json.
			nDeltas := 192
			if *quick {
				nDeltas = 48
			}
			t, rep, err := bench.ObsOverheadExp(bench.SyntheticDS, cfg, 4, nDeltas)
			if err != nil {
				return nil, err
			}
			if *jsonOut != "" {
				data, err := rep.JSON()
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "embench: wrote %s\n", *jsonOut)
			}
			return t, nil
		}},
	}

	ran := 0
	for _, s := range suite {
		if *exp != "all" && !strings.EqualFold(*exp, s.name) {
			continue
		}
		ran++
		t, err := s.run()
		if err != nil {
			log.Fatalf("embench: %s: %v", s.name, err)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", s.name, t.CSV())
		} else {
			t.Print(os.Stdout)
		}
	}
	if ran == 0 {
		log.Fatalf("embench: unknown experiment %q", *exp)
	}
}

// serveMetrics starts a background HTTP server on addr exposing pprof
// (/debug/pprof/) plus an empty registry at /metrics//vars. The
// substrate's instruments are per-owner handles now (each experiment
// wires its own registry), so there is no process-global engine.*
// series to publish here — the endpoint remains for pprof and as a
// liveness probe. No-op when addr is empty.
func serveMetrics(addr string) {
	if addr == "" {
		return
	}
	reg := obs.NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(reg, nil))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("embench: metrics server: %v", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "embench: serving metrics on %s\n", addr)
}
