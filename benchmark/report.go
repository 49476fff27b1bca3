package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// envelope is the header every output file carries: what was measured
// where, so that two files can be told apart before they are compared.
type envelope struct {
	Commit      string  `json:"commit"`
	Go          string  `json:"go"`
	CPU         string  `json:"cpu"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Seed        int64   `json:"seed"`
	Runs        int     `json:"runs"`
	FlushPolicy string  `json:"flush_policy"`
	Seconds     float64 `json:"window_seconds"` // untraced run: a quarter per stage
	Rounds      int     `json:"rounds"`
	ProbeClosed float64 `json:"traced_closed_read_seconds"`
	ProbeRead   float64 `json:"traced_read_seconds"`
	ProbeMixed  float64 `json:"traced_mixed_seconds"`
	Warm        float64 `json:"warmup_seconds"`
	Smoke       bool    `json:"smoke"`
	RefLoop     float64 `json:"speed_reference_loop_seconds"`
	Note        string  `json:"note"`
}

func newEnvelope(seed int64, runs int, secs float64, smoke bool) envelope {
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	return envelope{
		Commit:      commit(),
		Go:          runtime.Version(),
		CPU:         cpuModel(),
		NProc:       nproc(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        seed,
		Runs:        runs,
		FlushPolicy: "DurabilityFsync on the local disk of the sandbox, every stage",
		Seconds:     secs,
		Rounds:      sz.rounds,
		ProbeClosed: sz.probeClosed.Seconds(),
		ProbeRead:   sz.probeRead.Seconds(),
		ProbeMixed:  sz.probeMixed.Seconds(),
		Warm:        sz.warm.Seconds(),
		Smoke:       smoke,
		RefLoop:     refLoopSeconds,
		Note:        "graphkeys has no internal cache and everything is memory-resident; latencies are the sandbox's, not a device's",
	}
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runRecord is one untraced run in a result set.
type runRecord struct {
	Seed      int64             `json:"seed"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Speed     float64           `json:"speed_factor"` // every timing in Metrics is its raw divided by this
	Metrics   map[string]sample `json:"metrics"`
}

// tracedRecord is the traced run of a result set.
type tracedRecord struct {
	Seed    int64                  `json:"seed"`
	Metrics map[string]sample      `json:"metrics"`
	Budget  map[string][]budgetRow `json:"budget_us"`
}

// workloadSet is everything a result set holds on one workload.
// Summary has, per end-to-end metric, the median over the runs with
// their count and quartiles (Python's statistics.quantiles, n=4).
type workloadSet struct {
	Input   string            `json:"input"`
	Runs    []runRecord       `json:"runs"`
	Summary map[string]sample `json:"summary"`
	Traced  *tracedRecord     `json:"traced,omitempty"`
}

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	Envelope  envelope                `json:"envelope"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

func (ws *workloadSet) summarize() {
	ws.Summary = make(map[string]sample)
	for _, d := range endToEnd {
		var vals []float64
		for _, run := range ws.Runs {
			vals = append(vals, run.Metrics[d.Name].Value)
		}
		q1, q2, q3 := quartiles(vals)
		ws.Summary[d.Name] = sample{Value: q2, Unit: d.Unit, N: len(vals), Q1: q1, Q3: q3}
	}
}

// spread is the distance between the quartiles as a share of the
// median: the steadiness the acceptance rule is stated in.
func spread(s sample) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printMetrics(w io.Writer, title string, decls []metricDecl, metrics map[string]sample, withSpread bool) {
	fmt.Fprintf(w, "== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if withSpread {
		fmt.Fprintln(tw, "metric\tmedian\tunit\truns\tq1\tq3\tspread\tbound")
	} else {
		fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tq1\tq3\tas the clock read it")
	}
	for _, d := range decls {
		s, ok := metrics[d.Name]
		if !ok {
			continue
		}
		if withSpread {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%.6g\t%.6g\t%.1f%%\t%.0f%%\n", d.Name, s.Value, d.Unit, s.N, s.Q1, s.Q3, 100*spread(s), 100*d.Bound)
		} else {
			raw := ""
			if s.Raw != 0 {
				raw = fmt.Sprintf("%.6g", s.Raw)
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%.6g\t%.6g\t%s\n", d.Name, s.Value, d.Unit, s.N, s.Q1, s.Q3, raw)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func printBudget(w io.Writer, budget map[string][]budgetRow) {
	for _, ladder := range []string{"same", "entities", "apply"} {
		rows := budget[ladder]
		if len(rows) == 0 {
			continue
		}
		fmt.Fprintf(w, "== where one %s goes (self time, sums to the depth-0 median) ==\n", ladder)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		total := 0.0
		for _, r := range rows {
			total += r.SelfUS
		}
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%.2f us\t%.0f%%\n", r.Layer, r.SelfUS, 100*r.SelfUS/total)
		}
		fmt.Fprintf(tw, "total\t%.2f us\t\n", total)
		tw.Flush()
		fmt.Fprintln(w)
	}
}

// resultLine is the last line of standard output of a single run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lineFor renders a run as the one-line JSON object: exactly the
// declared metrics of the run's kind, each with value and unit.
func lineFor(res *runResult, trace bool) (string, error) {
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	line := resultLine{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]lineMetric)}
	for _, d := range decls {
		s, ok := res.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("run did not produce declared metric %s", d.Name)
		}
		line.Metrics[d.Name] = lineMetric{Value: s.Value, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}
