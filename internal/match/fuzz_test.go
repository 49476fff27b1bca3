package match_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// randomJoinCase derives a small graph — a dozen entities over three
// types, three predicates, four literals, a few of the entities with a
// twin or a near twin — and one or two keys from the seed. A key's
// pattern is grown along the edges around a twinned entity, so it
// matches there: hops in either direction, entity variables, wildcards,
// constants, value variables reached over several branches, cycles.
// The graph is in the format of the shapes (one whitespace-separated
// triple per line).
func randomJoinCase(seed int64) (graphText, keysText string) {
	rng := rand.New(rand.NewSource(seed))
	types := []string{"A", "B", "C"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	typeOf := func(e string) string { return e[strings.Index(e, ":")+1:] }

	var ents []string
	for i, n := 0, 6+rng.Intn(7); i < n; i++ {
		ents = append(ents, fmt.Sprintf("n%d:%s", i, pick(types)))
	}
	var triples [][3]string
	for i := 0; i < 3*len(ents); i++ {
		o := pick(ents)
		if rng.Intn(2) == 0 {
			o = fmt.Sprintf("%q", fmt.Sprintf("v%d", rng.Intn(4)))
		}
		triples = append(triples, [3]string{pick(ents), pick([]string{"p", "q", "r"}), o})
	}
	// Twins: an entity's triples repeated on a fresh entity of its type
	// — all of them (what a key matches at one it identifies with the
	// other), or all but one in four (near misses).
	var twinned []string
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		e := triples[rng.Intn(len(triples))][0]
		twinned = append(twinned, e)
		twin := fmt.Sprintf("t%d:%s", i, typeOf(e))
		drop := rng.Intn(2) == 0
		for _, tr := range triples {
			if (tr[0] != e && tr[2] != e) || (drop && rng.Intn(4) == 0) {
				continue
			}
			for _, at := range []int{0, 2} {
				if tr[at] == e {
					tr[at] = twin
				}
			}
			triples = append(triples, tr)
		}
	}
	var g strings.Builder
	for _, tr := range triples {
		fmt.Fprintf(&g, "%s %s %s\n", tr[0], tr[1], tr[2])
	}

	var ks strings.Builder
	for k, e0 := range twinned[:min(len(twinned), 1+rng.Intn(2))] {
		token := map[string]string{e0: "x"} // graph node -> the pattern node it is bound to
		lines := make(map[string]bool)
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			var around [][3]string // the triples that touch a bound node
			for _, tr := range triples {
				if token[tr[0]] != "" || token[tr[2]] != "" {
					around = append(around, tr)
				}
			}
			tr := around[rng.Intn(len(around))]
			for _, node := range []string{tr[0], tr[2]} {
				switch {
				case token[node] != "":
				case !strings.Contains(node, ":"): // a literal: value variable, or itself as a constant
					token[node] = pick([]string{fmt.Sprintf("v%d*", i), node})
				default:
					token[node] = fmt.Sprintf("%s%d:%s", pick([]string{"$y", "_w"}), i, typeOf(node))
				}
			}
			lines[fmt.Sprintf(" %s -%s-> %s\n", token[tr[0]], tr[1], token[tr[2]])] = true
		}
		fmt.Fprintf(&ks, "key K%d for %s {\n", k, typeOf(e0))
		for _, line := range slices.Sorted(maps.Keys(lines)) {
			ks.WriteString(line)
		}
		ks.WriteString("}\n")
	}
	return g.String(), ks.String()
}

// FuzzCandidateJoin checks the leaf-path join against the full sweep on
// arbitrary small graphs and key sets — the hand-written shapes and 64
// seeded random cases as corpus: the candidate stream is strictly
// ascending and a subset of the sweep, PartnerStream(e) is the row of e
// in its symmetric closure, and the chase off the stream equals the
// chase off the sweep in pairs and in steps.
//
// CI runs this as a fuzz smoke leg alongside the parser fuzzers.
func FuzzCandidateJoin(f *testing.F) {
	for _, s := range match.Shapes() {
		f.Add(s.Graph, s.Keys)
	}
	for seed := int64(0); seed < 64; seed++ {
		g, ks := randomJoinCase(seed)
		f.Add(g, ks)
	}
	f.Fuzz(func(t *testing.T, graphText, keysText string) {
		if len(graphText) > 1<<17 {
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
		full, err := match.New(g, set, match.Options{FullSweep: true})
		if err != nil {
			t.Fatal(err)
		}
		inSweep := make(map[eqrel.Pair]bool)
		for pr := range full.CandidateStream() {
			if inSweep[pr] = true; len(inSweep) > 2000 {
				t.Skip("sweep too large")
			}
		}

		m, err := match.New(g, set, match.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows := make(map[graph.NodeID][]graph.NodeID)
		last := eqrel.Pair{A: -1, B: -1}
		for pr := range m.CandidateStream() {
			if pr.A < last.A || (pr.A == last.A && pr.B <= last.B) || pr.A >= pr.B {
				t.Fatalf("stream not strictly ascending: %v then %v", last, pr)
			}
			if !inSweep[pr] {
				t.Fatalf("candidate %v is not in the full sweep", pr)
			}
			last = pr
			a, b := graph.NodeID(pr.A), graph.NodeID(pr.B)
			rows[a] = append(rows[a], b)
			rows[b] = append(rows[b], a)
		}
		for _, e := range m.KeyedEntities() {
			want := rows[graph.NodeID(e)]
			slices.Sort(want)
			if got := slices.Collect(m.PartnerStream(graph.NodeID(e))); !slices.Equal(got, want) {
				t.Fatalf("PartnerStream(%d) = %v, row of the candidate stream is %v", e, got, want)
			}
		}

		joined, err := chase.Run(g, set, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		swept, err := chase.Run(g, set, chase.Options{Match: match.Options{FullSweep: true}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(joined.Pairs, swept.Pairs) || !reflect.DeepEqual(joined.Steps, swept.Steps) {
			t.Fatalf("chase off the join diverges from chase off the sweep\njoin:  %v\n       %v\nsweep: %v\n       %v",
				joined.Pairs, joined.Steps, swept.Pairs, swept.Steps)
		}
	})
}
