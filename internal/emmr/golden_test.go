package emmr

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"graphkeys/internal/fixtures"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/emmr_golden.txt from the current driver")

// TestEMMRGolden pins the three variants to a frozen oracle. Each line
// is one workload × variant × worker count: a SHA-256 over Pairs, then
// the round structure (Rounds, IdentifiedDirect, SkippedByDependency),
// all of which must match exactly, then the work counters Checks,
// IsoSteps, KVs, Candidates and CandidatesUnfiltered, which may only
// stay or fall (testutil.Golden). The workloads are the three paper
// fixtures, the dependency chains of TestDependencyChainRounds and
// three seeds of TestRandomizedAgainstChase's generator; every line of
// one workload and variant is equal across p.
func TestEMMRGolden(t *testing.T) {
	type workload struct {
		name string
		g    *graph.Graph
		set  *keys.Set
	}
	ws := []workload{
		{"music", fixtures.MusicGraph(), fixtures.MusicKeys()},
		{"company", fixtures.CompanyGraph(), fixtures.CompanyKeys()},
		{"address", fixtures.AddressGraph(), fixtures.AddressKeys()},
	}
	for _, depth := range []int{2, 4, 6} {
		g, set := chainFixture(t, depth)
		ws = append(ws, workload{fmt.Sprintf("chain%d", depth), g, set})
	}
	for seed := int64(0); seed < 3; seed++ {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		ws = append(ws, workload{fmt.Sprintf("random%d", seed), g, randomKeys(t)})
	}
	var got strings.Builder
	for _, w := range ws {
		for _, v := range []Variant{Base, VF2, Opt} {
			for _, p := range []int{1, 2, 4, 8} {
				res := run(t, w.g, w.set, Config{P: p, Variant: v})
				st := res.Stats
				sum := sha256.Sum256(fmt.Appendf(nil, "%v\n", res.Pairs))
				fmt.Fprintf(&got, "%s %v p=%d %x rounds=%d direct=%d skipped=%d checks=%d iso=%d kvs=%d cands=%d unfiltered=%d\n",
					w.name, v, p, sum, st.Rounds, st.IdentifiedDirect, st.SkippedByDependency,
					st.Checks, st.IsoSteps, st.KVs, st.Candidates, st.CandidatesUnfiltered)
			}
		}
	}
	testutil.Golden(t, filepath.Join("testdata", "emmr_golden.txt"), got.String(), 5, *update)
}
