package match_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/emmr"
	"graphkeys/internal/emvc"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
	"graphkeys/internal/oracle"
	"graphkeys/internal/pattern"
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
	addDefinitionCorpus(f)
	f.Fuzz(func(t *testing.T, graphText, keysText string) {
		checkAgainstDefinition(t, graphText, keysText, nil)
	})
}

// FuzzValueEqAgainstDefinition is FuzzAgainstDefinition's ValueEq leg:
// the engines and the oracle decide value equality by strings.EqualFold,
// so candidate generation is the per-type sweep (IndexableType) and
// value variables and constants bind across case. The corpus adds each
// random join case with every other literal upper-cased, so twins match
// only under the folding.
//
// One deviation from the definition is known, and such inputs are
// skipped: a key constant that is not a value of G matches nothing in
// the engines (the compiled key has no node to compare with), while the
// definition matches it at every value of G the ValueEq equates with
// it.
//
// CI runs this as a fuzz smoke leg too.
func FuzzValueEqAgainstDefinition(f *testing.F) {
	addDefinitionCorpus(f)
	for seed := int64(0); seed < 64; seed++ {
		g, ks := match.RandomJoinCase(seed)
		var folded strings.Builder
		for i, part := range strings.SplitAfter(g, `"`) {
			if i%4 == 1 {
				part = strings.ToUpper(part)
			}
			folded.WriteString(part)
		}
		f.Add(folded.String(), ks)
	}
	f.Fuzz(func(t *testing.T, graphText, keysText string) {
		checkAgainstDefinition(t, graphText, keysText, strings.EqualFold)
	})
}

// addDefinitionCorpus seeds a fuzz target with the shapes and 64 seeded
// random join cases.
func addDefinitionCorpus(f *testing.F) {
	for _, s := range match.Shapes() {
		f.Add(s.Graph, s.Keys)
	}
	for seed := int64(0); seed < 64; seed++ {
		g, ks := match.RandomJoinCase(seed)
		f.Add(g, ks)
	}
}

// checkAgainstDefinition runs every batch engine on one input under
// valueEq (nil: exact equality) and holds its pairs to oracle.Chase's.
func checkAgainstDefinition(t *testing.T, graphText, keysText string, valueEq func(a, b string) bool) {
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
	if valueEq != nil && constantOutsideG(g, set, valueEq) {
		t.Skip("a key constant absent from G equals a value of G under ValueEq: the known deviation")
	}
	var want []eqrel.Pair
	for _, p := range oracle.Chase(g, set, valueEq) {
		want = append(want, eqrel.Pair{A: int32(p.A), B: int32(p.B)})
	}
	check := func(engine string, got []eqrel.Pair) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s identifies %v, the definition %v", engine, labels(g, got), labels(g, want))
		}
	}
	mo := match.Options{ValueEq: valueEq}
	for _, p := range []int{1, 2} {
		res, err := chase.Run(g, set, chase.Options{Parallelism: p, Match: mo})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("chase p=%d", p), res.Pairs)
	}
	for _, v := range []emmr.Variant{emmr.Base, emmr.VF2, emmr.Opt} {
		res, err := emmr.Run(g, set, emmr.Config{P: 2, Variant: v, Match: mo})
		if err != nil {
			t.Fatal(err)
		}
		check(v.String(), res.Pairs)
	}
	for _, v := range []emvc.Variant{emvc.Base, emvc.Opt} {
		for _, k := range []int{1, 4} {
			res, err := emvc.Run(g, set, emvc.Config{P: 2, Variant: v, K: k, Match: mo})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%v K=%d", v, k), res.Pairs)
		}
	}
}

// constantOutsideG reports whether some key constant is not a value of
// g but equals one under valueEq.
func constantOutsideG(g *graph.Graph, set *keys.Set, valueEq func(a, b string) bool) bool {
	for _, k := range set.Keys() {
		for _, n := range k.Pattern.Nodes {
			if n.Kind != pattern.Const {
				continue
			}
			if _, ok := g.Value(n.Value); ok {
				continue
			}
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				if g.IsValue(v) && valueEq(g.Label(v), n.Value) {
					return true
				}
			}
		}
	}
	return false
}

// labels renders pairs as "a~b" over entity labels.
func labels(g *graph.Graph, pairs []eqrel.Pair) []string {
	out := make([]string, len(pairs))
	for i, pr := range pairs {
		out[i] = g.Label(graph.NodeID(pr.A)) + "~" + g.Label(graph.NodeID(pr.B))
	}
	return out
}
