package match_test

import (
	"reflect"
	"slices"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

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
		g, ks := match.RandomJoinCase(seed)
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
		for _, e := range keyedEntities(m) {
			want := rows[e]
			slices.Sort(want)
			if got := slices.Collect(m.PartnerStream(e)); !slices.Equal(got, want) {
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
