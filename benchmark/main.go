// Command benchmark is the one benchmark of graphkeys: two workloads
// that each go through every stage of the system's life, ten
// end-to-end metrics, and a traced pass whose layer ladders add up. See
// README.md.
//
// One run, as the driver makes it (last line of stdout is the result):
//
//	benchmark -workload google-chains -seed 1 -seconds 40 -trace 0
//
// All workloads, untraced runs then one traced run each, with files:
//
//	benchmark -out DIR [-workload NAME] [-seed N] [-runs K]
//
// Two result sets against each other:
//
//	benchmark -compare OLD.json NEW.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, with -out)")
		seed     = flag.Int64("seed", 1, "input seed; run k of -runs uses seed+k. 1 is the development seed, 2 the holdout")
		secs     = flag.Float64("seconds", 40, "measured time of an untraced run: a quarter each for batch match, durable churn, reads, and reads beside writes")
		trace    = flag.Int("trace", 0, "1: traced pass (per-layer metrics) instead of the end-to-end run")
		out      = flag.String("out", "", "directory for results.json and <workload>.trace.json")
		runs     = flag.Int("runs", 1, "untraced runs per workload, with -out")
		smoke    = flag.Bool("smoke", false, "tiny inputs and sub-second windows: exercises everything, measures nothing")
		cmp      = flag.Bool("compare", false, "compare two result sets: -compare OLD.json NEW.json")
		emserve  = flag.String("emserve", "", "emserve binary (default: built with `go build graphkeys/cmd/emserve` from the working directory)")
		scratch  = flag.String("scratch", "", "directory for WAL directories and input files (default: the system's temporary directory)")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		var g errGate
		if errors.As(err, &g) {
			return 3
		}
		return 1
	}

	if *cmp {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare takes OLD.json NEW.json"))
		}
		oldSet, err := readResultSet(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		newSet, err := readResultSet(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse := compare(os.Stdout, oldSet, newSet); worse > 0 {
			fmt.Printf("\n%d worse\n", worse)
			return 1
		}
		return 0
	}

	if *scratch != "" {
		if err := os.MkdirAll(*scratch, 0o755); err != nil {
			return fail(err)
		}
	}
	work, err := os.MkdirTemp(*scratch, "gkbench-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	bin := *emserve
	if bin == "" {
		bin = filepath.Join(work, "emserve")
		if outb, err := exec.Command("go", "build", "-o", bin, "graphkeys/cmd/emserve").CombinedOutput(); err != nil {
			return fail(fmt.Errorf("building emserve (run from benchmark/, or pass -emserve): %v\n%s", err, outb))
		}
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *secs, trace: *trace == 1, smoke: *smoke, scratch: work, emserve: bin}

	if *out == "" {
		// One run, for the driver: numbers by name on stderr, the
		// result object as the last line of stdout.
		if *workload == "" {
			return fail(errors.New("give -workload NAME, or -out DIR to run them all"))
		}
		res, err := runOnce(cfg)
		if err != nil {
			return fail(err)
		}
		decls := endToEnd
		if cfg.trace {
			decls = perLayer
			printBudget(os.Stderr, res.Budget)
		}
		title := fmt.Sprintf("%s seed %d (%s)", cfg.workload, cfg.seed, res.Input)
		if !cfg.trace {
			title += fmt.Sprintf("; timings divided by the run's speed factor %.3f", res.Speed)
		}
		printMetrics(os.Stderr, title, decls, res.Metrics, false)
		line, err := lineFor(res, cfg.trace)
		if err != nil {
			return fail(err)
		}
		fmt.Println(line)
		return 0
	}

	set := &resultSet{Envelope: newEnvelope(*seed, *runs, *secs, *smoke), Workloads: make(map[string]*workloadSet)}
	for _, wd := range workloads {
		if *workload != "" && *workload != wd.Name {
			continue
		}
		ws := &workloadSet{}
		set.Workloads[wd.Name] = ws
		cfg.workload, cfg.trace = wd.Name, false
		for k := 0; k < *runs; k++ {
			cfg.seed = *seed + int64(k)
			res, err := runOnce(cfg)
			if err != nil {
				return fail(fmt.Errorf("%s seed %d: %w", wd.Name, cfg.seed, err))
			}
			ws.Input = res.Input
			ws.Runs = append(ws.Runs, runRecord{Seed: cfg.seed, Attempted: res.Attempted, Failed: res.Failed, Speed: res.Speed, Metrics: res.Metrics})
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", wd.Name, cfg.seed)
		}
		ws.summarize()
		printMetrics(os.Stdout, fmt.Sprintf("%s, %d run(s) from seed %d (%s)", wd.Name, *runs, *seed, ws.Input), endToEnd, ws.Summary, true)

		cfg.seed, cfg.trace = *seed, true
		res, err := runOnce(cfg)
		if err != nil {
			return fail(fmt.Errorf("%s traced: %w", wd.Name, err))
		}
		ws.Traced = &tracedRecord{Seed: cfg.seed, Metrics: res.Metrics, Budget: res.Budget}
		printMetrics(os.Stdout, wd.Name+", traced pass", perLayer, res.Metrics, false)
		printBudget(os.Stdout, res.Budget)
		tracePath := filepath.Join(*out, wd.Name+".trace.json")
		if err := writeJSON(tracePath, map[string]any{"envelope": set.Envelope, "workload": wd.Name, "spans": res.Spans}); err != nil {
			return fail(err)
		}
	}
	if len(set.Workloads) == 0 {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if err := writeJSON(filepath.Join(*out, "results.json"), set); err != nil {
		return fail(err)
	}
	return 0
}
