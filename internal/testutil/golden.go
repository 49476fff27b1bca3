package testutil

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// Golden compares got with the golden file at path, line by line. A
// line is "<case> <oracle-hash> <name=count>...", its last counts
// fields being work counters: everything before them — the oracle —
// must equal the golden's exactly, and a counter may not exceed the
// golden's. A counter that fell passes; update rewrites the file with
// what the run produced, so the diff of a change that only does less
// work shows count columns only.
func Golden(t *testing.T, path, got string, counts int, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d (rerun with -update if the case list changed)", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		g, w := strings.Fields(gotLines[i]), strings.Fields(wantLines[i])
		if len(g) == 0 && len(w) == 0 {
			continue // the file's final newline
		}
		if len(g) != len(w) || len(g) <= counts {
			t.Fatalf("line %d: malformed\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
		cut := len(g) - counts
		if strings.Join(g[:cut], " ") != strings.Join(w[:cut], " ") {
			t.Errorf("diverges from the frozen oracle:\ngot:  %s\nwant: %s", gotLines[i], wantLines[i])
			continue
		}
		for j := cut; j < len(g); j++ {
			gn, gv, _ := strings.Cut(g[j], "=")
			wn, wv, _ := strings.Cut(w[j], "=")
			a, errA := strconv.Atoi(gv)
			b, errB := strconv.Atoi(wv)
			if gn != wn || errA != nil || errB != nil {
				t.Fatalf("line %d: malformed counter %q against %q", i+1, g[j], w[j])
			}
			if a > b {
				t.Errorf("%s: %s rose from %d to %d", strings.Join(g[:cut-1], " "), gn, b, a)
			}
		}
	}
}
