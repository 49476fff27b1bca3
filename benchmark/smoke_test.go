package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationsMatchBenchmarkJSON keeps BENCHMARK.json and decl.go
// saying the same thing.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) || len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; decl.go has %d, %d, %d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	use := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		use(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, decl.go %+v", i, bj.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for i, d := range endToEnd {
		use(d.Name)
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json says %+v, decl.go %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for i, d := range perLayer {
		use(d.Name)
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json says %+v, decl.go %+v", i, j, d)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
}

func buildEmserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "emserve")
	if out, err := exec.Command("go", "build", "-o", bin, "graphkeys/cmd/emserve").CombinedOutput(); err != nil {
		t.Fatalf("building emserve: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs both workloads, untraced and traced, at -smoke
// size: every declared name must come out exactly once per run, with
// its declared unit, and nothing else. No timing is asserted.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts emserve children")
	}
	cfg := runConfig{seed: 1, seconds: 1.2, smoke: true, scratch: t.TempDir(), emserve: buildEmserve(t)}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg.workload, cfg.trace = w.Name, trace
			res, err := runOnce(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			decls := endToEnd
			if trace {
				decls = perLayer
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				s, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, d.Name)
					continue
				}
				if s.Unit != d.Unit {
					t.Errorf("%s: %s emitted in %q, declared %q", w.Name, d.Name, s.Unit, d.Unit)
				}
				if !trace && s.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, d.Name, s.Value)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, trace, res.Attempted, res.Failed)
			}
			line, err := lineFor(res, trace)
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &obj); err != nil || len(obj) != 4 {
				t.Errorf("result line is not an object of exactly four keys: %s", line)
			}
			if trace && len(res.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
		}
	}
}

// TestGateTrips feeds the batch stage one planted pair that no key
// identifies and sees the correctness gate refuse to report.
func TestGateTrips(t *testing.T) {
	b := &batchStage{spec: specFor(wDBpedia, true), seed: 1}
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if err := b.measure(0); err != nil {
		t.Fatalf("untouched input: %v", err)
	}
	b.inst.in.expected = append(b.inst.in.expected, [2]string{"zz_not_a", "zz_not_b"})
	err := b.measure(1)
	var g errGate
	if !errors.As(err, &g) {
		t.Fatalf("wrong expected pair: got %v, want a gate violation", err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), which the acceptance rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 7, 3, 8, 2, 9, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, Python gives 1 2 3", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(matchS, q1, q3 float64, failed int64) *resultSet {
		ws := &workloadSet{Summary: make(map[string]sample), Runs: []runRecord{{Attempted: 100, Failed: failed}}}
		for _, d := range endToEnd {
			ws.Summary[d.Name] = sample{Value: 1, Q1: 1, Q3: 1, N: 5, Unit: d.Unit}
		}
		ws.Summary["match_s"] = sample{Value: matchS, Q1: q1, Q3: q3, N: 5, Unit: "s"}
		return &resultSet{Workloads: map[string]*workloadSet{wDBpedia: ws}}
	}
	cases := []struct {
		name     string
		old, new *resultSet
		want     string
		worse    int
	}{
		{"same", mk(1, 0.99, 1.01, 0), mk(1.05, 1, 1.1, 0), "same", 0},
		{"worse", mk(1, 0.99, 1.01, 0), mk(1.3, 1.3, 1.3, 0), "worse", 1},
		{"better", mk(1, 0.99, 1.01, 0), mk(0.7, 0.7, 0.7, 0), "better", 0},
		{"unresolved", mk(1, 0.8, 1.2, 0), mk(1.4, 1.4, 1.4, 0), "unresolved", 0},
		{"failed", mk(1, 1, 1, 0), mk(1, 1, 1, 2), "same", 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		worse := compare(&out, c.old, c.new)
		if worse != c.worse {
			t.Errorf("%s: %d worse, want %d\n%s", c.name, worse, c.worse, out.String())
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " match_s ") {
				found = strings.HasSuffix(strings.TrimSpace(line), c.want)
			}
		}
		if !found {
			t.Errorf("%s: match_s row does not end in %q\n%s", c.name, c.want, out.String())
		}
	}
}
