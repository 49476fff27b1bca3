package emvc

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/emvc_golden.txt from the current driver")

type workload struct {
	name string
	g    *graph.Graph
	set  *keys.Set
}

// goldenWorkloads are the three paper fixtures, the dependency chains
// of TestDependencyChainCascade, three seeds of
// TestRandomizedAgainstChase's generator and BenchmarkBuildProduct's
// ledger input.
func goldenWorkloads(t *testing.T) []workload {
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
	w := ledgerInput(t)
	return append(ws, workload{"dbpedia-chains", w.Graph, w.Keys})
}

func pairsHash(pairs []eqrel.Pair) string {
	return fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(nil, "%v\n", pairs)))
}

// TestEMVCGolden pins both variants to a frozen oracle. Each line is
// one workload × variant × worker count: a SHA-256 over Pairs, which
// must also be the sequential chase's, then Identified, which must
// match exactly, then the work counters Messages, LocalSteps,
// Increments, Candidates and ProductNodes, which may only stay or fall
// (testutil.Golden). Every line of one workload and variant is equal
// across p.
func TestEMVCGolden(t *testing.T) {
	var got strings.Builder
	for _, w := range goldenWorkloads(t) {
		want := pairsHash(groundTruth(t, w.g, w.set))
		for _, v := range []Variant{Base, Opt} {
			for _, p := range []int{1, 2, 4, 8} {
				res := run(t, w.g, w.set, Config{P: p, Variant: v})
				st := res.Stats
				sum := pairsHash(res.Pairs)
				if sum != want {
					t.Errorf("%s %v p=%d: pairs differ from the chase's", w.name, v, p)
				}
				fmt.Fprintf(&got, "%s %v p=%d %s identified=%d messages=%d local=%d increments=%d cands=%d nodes=%d\n",
					w.name, v, p, sum, st.Identified, st.Messages, st.LocalSteps, st.Increments,
					st.Candidates, st.ProductNodes)
			}
		}
	}
	testutil.Golden(t, filepath.Join("testdata", "emvc_golden.txt"), got.String(), 5, *update)
}

// TestDeterministicAcrossP: every count of a run, not only its pairs,
// is the same at every worker count.
func TestDeterministicAcrossP(t *testing.T) {
	for _, w := range goldenWorkloads(t) {
		for _, v := range []Variant{Base, Opt} {
			ref := run(t, w.g, w.set, Config{P: 1, Variant: v})
			for _, p := range []int{2, 3, 8, 16} {
				res := run(t, w.g, w.set, Config{P: p, Variant: v})
				if !samePairs(res.Pairs, ref.Pairs) {
					t.Fatalf("%s %v p=%d changed the result", w.name, v, p)
				}
				if res.Stats != ref.Stats {
					t.Errorf("%s %v p=%d changed the counts:\n got %+v\nwant %+v", w.name, v, p, res.Stats, ref.Stats)
				}
			}
		}
	}
}
