package chase

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/chase_golden.txt from the current drivers")

// TestChaseGolden pins both chase drivers to a frozen oracle. The
// golden file was generated by the materialized candidate path (build
// and sort all of L, then sweep it) at the last commit that carried
// it; each line is a SHA-256 over (Pairs, Steps, Candidates, IsoSteps)
// for one diffCases workload at one worker count and pairing setting.
// The streamed drivers must reproduce every line: not just the
// fixpoint but the step log, the candidate count and the work counter.
// Sequential equality holds because retaining only failed pairs
// reproduces the sweep loop check for check (Same is monotone);
// parallel equality because round-1 verdicts depend only on the
// initial snapshot, so chunked streaming commits the same unions in
// the same order.
func TestChaseGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range diffCases(t) {
		for _, p := range []int{1, 2, 4, 8} {
			for _, pairing := range []bool{false, true} {
				res, err := Run(tc.g, tc.set, Options{Parallelism: p, UsePairing: pairing})
				if err != nil {
					t.Fatalf("%s p=%d pairing=%v: %v", tc.name, p, pairing, err)
				}
				sum := sha256.Sum256(fmt.Appendf(nil, "%v\n%v\n%d\n%d\n", res.Pairs, res.Steps, res.Candidates, res.IsoSteps))
				fmt.Fprintf(&got, "%s p=%d pairing=%v %x\n", tc.name, p, pairing, sum)
			}
		}
	}
	path := filepath.Join("testdata", "chase_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d (rerun with -update if the case list changed)", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("diverges from the frozen oracle:\ngot:  %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}
