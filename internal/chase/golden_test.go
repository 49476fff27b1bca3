package chase

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"graphkeys/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/chase_golden.txt from the current drivers")

// TestChaseGolden pins both chase drivers to a frozen oracle. Each line
// of the golden file is one diffCases workload at one worker count (the
// constant pairing=false column is kept from when the drivers could
// also filter L by pairing, so the frozen rows stay byte for byte): a
// SHA-256 over (Pairs, Steps) — the oracle, first
// generated by the materialized candidate path (build and sort all of
// L, then sweep it) — followed by the work counters Candidates and
// IsoSteps in decimal. The drivers must reproduce the oracle column
// exactly, not just the fixpoint but the step log; a counter may only
// stay or fall (testutil.Golden), so a change to candidate generation
// is free to check fewer pairs and can never pass by checking others.
// Sequential equality holds because retaining only failed pairs
// reproduces the sweep loop check for check (Same is monotone);
// parallel equality because round-1 verdicts depend only on the
// initial snapshot, so generating and checking L in ranges on the
// workers and committing the ranges in range order makes the same
// unions in the same order.
func TestChaseGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range diffCases(t) {
		for _, p := range []int{1, 2, 4, 8} {
			res, err := Run(tc.g, tc.set, Options{Parallelism: p})
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			sum := sha256.Sum256(fmt.Appendf(nil, "%v\n%v\n", res.Pairs, res.Steps))
			fmt.Fprintf(&got, "%s p=%d pairing=false %x cands=%d iso=%d\n", tc.name, p, sum, res.Candidates, res.IsoSteps)
		}
	}
	testutil.Golden(t, filepath.Join("testdata", "chase_golden.txt"), got.String(), 2, *update)
}
