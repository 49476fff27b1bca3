package match_test

import (
	"fmt"
	"slices"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/emmr"
	"graphkeys/internal/emvc"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
	"graphkeys/internal/oracle"
)

// FuzzAgainstDefinition holds every batch engine to oracle.Chase, which
// decides chase(G, Σ) from the definitions and shares no code with the
// engines: the chase at p = 1 and 2, the three EMMR variants, and EMVC
// and EMOptVC at K = 1 (forks explore in place) and K = 4, each under
// exact value equality. The corpus is the hand-written shapes and 64
// seeded random join cases. The oracle is exponential in the pattern,
// so inputs past a few thousand nodes or keys past six triples are
// skipped.
//
// CI runs this as a fuzz smoke leg alongside FuzzCandidateJoin.
func FuzzAgainstDefinition(f *testing.F) {
	for _, s := range match.Shapes() {
		f.Add(s.Graph, s.Keys)
	}
	for seed := int64(0); seed < 64; seed++ {
		g, ks := match.RandomJoinCase(seed)
		f.Add(g, ks)
	}
	f.Fuzz(func(t *testing.T, graphText, keysText string) {
		if len(graphText) > 1<<16 {
			t.Skip("graph too large")
		}
		g, err := match.ParseShapeGraph(graphText)
		if err != nil {
			t.Skip(err)
		}
		set, err := keys.ParseString(keysText)
		if err != nil {
			t.Skip(err)
		}
		if slices.ContainsFunc(set.Keys(), func(k *keys.Key) bool { return k.Pattern.Size() > 6 }) {
			t.Skip("pattern too large for the oracle")
		}
		var want []eqrel.Pair
		for _, p := range oracle.Chase(g, set) {
			want = append(want, eqrel.Pair{A: int32(p.A), B: int32(p.B)})
		}
		check := func(engine string, got []eqrel.Pair) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("%s identifies %v, the definition %v", engine, labels(g, got), labels(g, want))
			}
		}
		for _, p := range []int{1, 2} {
			res, err := chase.Run(g, set, chase.Options{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("chase p=%d", p), res.Pairs)
		}
		for _, v := range []emmr.Variant{emmr.Base, emmr.VF2, emmr.Opt} {
			res, err := emmr.Run(g, set, emmr.Config{P: 2, Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			check(v.String(), res.Pairs)
		}
		for _, v := range []emvc.Variant{emvc.Base, emvc.Opt} {
			for _, k := range []int{1, 4} {
				res, err := emvc.Run(g, set, emvc.Config{P: 2, Variant: v, K: k})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%v K=%d", v, k), res.Pairs)
			}
		}
	})
}

// labels renders pairs as "a~b" over entity labels.
func labels(g *graph.Graph, pairs []eqrel.Pair) []string {
	out := make([]string, len(pairs))
	for i, pr := range pairs {
		out[i] = g.Label(graph.NodeID(pr.A)) + "~" + g.Label(graph.NodeID(pr.B))
	}
	return out
}
