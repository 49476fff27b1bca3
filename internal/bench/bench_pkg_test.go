package bench

import (
	"bytes"
	"strings"
	"testing"
)

// quick is a small configuration for harness tests.
func quick() BuildConfig { return BuildConfig{Seed: 1, Scale: 0.3, C: 1, D: 1} }

// TestBuildAllDatasets: each dataset builds and carries keys plus a
// non-empty ground truth.
func TestBuildAllDatasets(t *testing.T) {
	for _, ds := range []Dataset{GoogleDS, DBpediaDS, SyntheticDS} {
		w, err := Build(ds, quick())
		if err != nil {
			t.Fatalf("%v: %v", ds, err)
		}
		if w.Graph.NumTriples() == 0 || w.Keys.Cardinality() == 0 || len(w.Expected) == 0 {
			t.Errorf("%v: degenerate workload: %d triples, %d keys, %d expected",
				ds, w.Graph.NumTriples(), w.Keys.Cardinality(), len(w.Expected))
		}
	}
}

// TestRunAlgoAllCorrect: every algorithm reproduces the planted truth
// on every dataset at the quick size (RunAlgo errors when one does not).
func TestRunAlgoAllCorrect(t *testing.T) {
	for _, ds := range []Dataset{GoogleDS, DBpediaDS, SyntheticDS} {
		w, err := Build(ds, quick())
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range Algos {
			m, err := RunAlgo(w, a, 2)
			if err != nil {
				t.Fatalf("%v/%v: %v", ds, a, err)
			}
			if m.Pairs == 0 {
				t.Errorf("%v/%v: no pairs identified", ds, a)
			}
		}
	}
}

// TestRunAlgoRejectsWrongResult: a run that differs from the planted
// truth is an error naming the algorithm, for all five, so no
// experiment can print a table from it.
func TestRunAlgoRejectsWrongResult(t *testing.T) {
	w, err := Build(SyntheticDS, quick())
	if err != nil {
		t.Fatal(err)
	}
	w.Expected = w.Expected[1:]
	for _, a := range Algos {
		_, err := RunAlgo(w, a, 2)
		if err == nil {
			t.Errorf("%v: no error although one planted pair is missing from the truth", a)
		} else if !strings.Contains(err.Error(), a.String()) {
			t.Errorf("%v: error does not name the algorithm: %v", a, err)
		}
	}
}

// TestExperimentRunners: each runner produces a table with the right
// shape; this is the smoke test that cmd/embench drives end to end.
func TestExperimentRunners(t *testing.T) {
	cfg := quick()
	t1, err := Exp1VaryP(SyntheticDS, cfg, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 2 || len(t1.Rows[0]) != 1+len(Algos) {
		t.Errorf("Exp1 table shape: %dx%d", len(t1.Rows), len(t1.Rows[0]))
	}
	t2, err := Exp2VaryG(SyntheticDS, cfg, []float64{0.2, 0.4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 2 {
		t.Errorf("Exp2 rows = %d", len(t2.Rows))
	}
	t3, err := Exp3VaryC(SyntheticDS, cfg, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 2 {
		t.Errorf("Exp3C rows = %d", len(t3.Rows))
	}
	t4, err := Exp3VaryD(SyntheticDS, cfg, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 2 {
		t.Errorf("Exp3D rows = %d", len(t4.Rows))
	}
}

// TestTable2AndAblations: the remaining reports run and contain the
// expected structure.
func TestTable2AndAblations(t *testing.T) {
	tb, err := Table2(quick(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("Table 2 rows = %d, want 3 datasets", len(tb.Rows))
	}
	ab, err := Ablations(SyntheticDS, quick(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Rows) < 7 {
		t.Errorf("ablations rows = %d", len(ab.Rows))
	}
}

// TestTableRendering: Print and CSV produce consistent output.
func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	var buf bytes.Buffer
	tb.Print(&buf)
	if !strings.Contains(buf.String(), "== t ==") || !strings.Contains(buf.String(), "3") {
		t.Errorf("Print output:\n%s", buf.String())
	}
	csv := tb.CSV()
	if csv != "a,b\n1,2\n3,4\n" {
		t.Errorf("CSV = %q", csv)
	}
}

// TestNames: paper-facing labels.
func TestNames(t *testing.T) {
	if GoogleDS.String() != "Google" || DBpediaDS.String() != "DBpedia" || SyntheticDS.String() != "Synthetic" {
		t.Error("dataset names drifted")
	}
	if AlgoEMOptVC.String() != "EMOptVC" || AlgoEMVF2MR.String() != "EMVF2MR" {
		t.Error("algo names drifted")
	}
	if Dataset(9).String() != "Dataset(9)" || Algo(9).String() != "Algo(9)" {
		t.Error("unknown enum formatting")
	}
}
