package inc

import (
	"reflect"
	"slices"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
)

// checkIndexes holds the engine's persistent bookkeeping to what the
// step log and the relation say when read from scratch — the whole-log
// passes the indices replaced, kept here as their reference: the
// provenance index is every step filed under its triples and nodes,
// the member index is the log's endpoints grouped by representative in
// first-appearance order, the relation is a fresh replay of the log
// (representatives included), and the pair list is the relation
// expanded over the keyed entities.
func checkIndexes(t *testing.T, e *Engine) {
	t.Helper()
	if len(e.stepIDs) != len(e.steps) || len(e.stepSeqs) != len(e.steps) {
		t.Fatalf("log columns out of step: %d steps, %d ids, %d seqs", len(e.steps), len(e.stepIDs), len(e.stepSeqs))
	}
	for i := 1; i < len(e.stepIDs); i++ {
		if e.stepIDs[i-1] >= e.stepIDs[i] {
			t.Fatalf("step IDs not increasing at %d: %d then %d", i, e.stepIDs[i-1], e.stepIDs[i])
		}
	}
	if !reflect.DeepEqual(e.pass, pass{}) {
		t.Fatalf("pass bookkeeping outlived its pass: %+v", e.pass)
	}

	byTriple := make(map[graph.Triple][]stepID)
	byRequire := make(map[int32][]stepID)
	byNode := make(map[int32][]stepID)
	members := make(map[int32][]int32)
	replayed := eqrel.New(e.eq.Len())
	for _, st := range e.steps {
		replayed.Union(st.Pair.A, st.Pair.B)
	}
	seen := make(map[int32]bool)
	for i, st := range e.steps {
		id := e.stepIDs[i]
		for _, n := range [2]int32{st.Pair.A, st.Pair.B} {
			byNode[n] = append(byNode[n], id)
			if !seen[n] {
				seen[n] = true
				r := replayed.Find(n)
				members[r] = append(members[r], n)
			}
		}
		for _, r := range st.Requires {
			if !slices.Contains(byRequire[r.A], id) {
				byRequire[r.A] = append(byRequire[r.A], id)
			}
		}
		for _, tr := range st.Uses {
			if !slices.Contains(byTriple[tr], id) {
				byTriple[tr] = append(byTriple[tr], id)
			}
		}
	}
	if !reflect.DeepEqual(e.idx.byTriple, byTriple) {
		t.Fatalf("triple index diverges from the log:\ngot:  %v\nwant: %v", e.idx.byTriple, byTriple)
	}
	if !reflect.DeepEqual(e.idx.byRequire, byRequire) {
		t.Fatalf("requires index diverges from the log:\ngot:  %v\nwant: %v", e.idx.byRequire, byRequire)
	}
	if !reflect.DeepEqual(e.idx.byNode, byNode) {
		t.Fatalf("pair-endpoint index diverges from the log:\ngot:  %v\nwant: %v", e.idx.byNode, byNode)
	}
	if !reflect.DeepEqual(e.idx.members, members) {
		t.Fatalf("member index diverges from the log:\ngot:  %v\nwant: %v", e.idx.members, members)
	}
	if e.eq.Classes() != replayed.Classes() {
		t.Fatalf("relation has %d classes, a replay of the log %d", e.eq.Classes(), replayed.Classes())
	}
	for n := int32(0); n < int32(e.eq.Len()); n++ {
		if got, want := e.eq.Reader().Find(n), replayed.Find(n); got != want {
			t.Fatalf("representative of %d is %d, a replay of the log gives %d", n, got, want)
		}
	}
	if want := e.eq.Pairs(e.m.KeyedEntities()); !pairsEqual(e.pairs, want) {
		t.Fatalf("spliced pairs diverge from the relation:\ngot:  %v\nwant: %v", e.pairs, want)
	}
}

func TestSplicePairs(t *testing.T) {
	p := func(a, b int32) eqrel.Pair { return eqrel.Pair{A: a, B: b} }
	base := []eqrel.Pair{p(1, 2), p(1, 5), p(3, 4), p(6, 7), p(6, 9)}
	for _, tc := range []struct {
		name           string
		added, removed []eqrel.Pair
		want           []eqrel.Pair
	}{
		{"nothing", nil, nil, base},
		{"remove-ends", nil, []eqrel.Pair{p(1, 2), p(6, 9)}, []eqrel.Pair{p(1, 5), p(3, 4), p(6, 7)}},
		{"add-ends", []eqrel.Pair{p(0, 1), p(8, 9)}, nil, []eqrel.Pair{p(0, 1), p(1, 2), p(1, 5), p(3, 4), p(6, 7), p(6, 9), p(8, 9)}},
		{"both", []eqrel.Pair{p(1, 3), p(6, 8)}, []eqrel.Pair{p(1, 5), p(6, 7)}, []eqrel.Pair{p(1, 2), p(1, 3), p(3, 4), p(6, 8), p(6, 9)}},
		{"replace-all", []eqrel.Pair{p(2, 3)}, base, []eqrel.Pair{p(2, 3)}},
	} {
		if got := splicePairs(slices.Clone(base), tc.added, tc.removed); !pairsEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}
