package inc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
)

// checkIndexes holds the engine's persistent bookkeeping to what the
// step log says when read from scratch — the whole-log passes the
// indices replaced, kept here as their reference: the provenance index
// is every step filed under its triples and nodes, the relation is a
// fresh replay of the log (representatives included), every class read
// off its ring is the log's endpoints grouped by the replay in
// first-appearance order, the pairs are the replay's, and every
// member of a class of two or more is a live entity of a keyed type.
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
	for n := int32(0); n < int32(e.eq.Len()); n++ {
		if got, want := e.eq.Find(n), replayed.Find(n); got != want {
			t.Fatalf("representative of %d is %d, a replay of the log gives %d", n, got, want)
		}
	}
	for r, want := range members {
		if got := e.class(r); !slices.Equal(got, want) {
			t.Fatalf("class of %d read off its ring is %v, the log gives %v", r, got, want)
		}
	}
	if got, want := e.eq.Pairs(), replayed.Pairs(); !pairsEqual(got, want) {
		t.Fatalf("pairs diverge from a replay of the log:\ngot:  %v\nwant: %v", got, want)
	}
	// Pairs reads every class, so none may hold what is not a live
	// entity of a keyed type: a tombstone or an unkeyed entity.
	for _, c := range e.eq.Classes() {
		for _, n := range c {
			if typ, ok := e.g.EntityType(graph.NodeID(n)); !ok || len(e.m.KeysFor(typ)) == 0 {
				t.Fatalf("class %v holds %d, not a live entity of a keyed type", c, n)
			}
		}
	}
}

// TestDiffClasses holds diffClasses to the set difference of the two
// partitions' expanded pairs, on random partitions of a few nodes, some
// listed classes of one partition absent from the other.
func TestDiffClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	partition := func(n int) [][]int32 {
		byClass := make(map[int][]int32)
		for node := int32(0); node < int32(n); node++ {
			c := rng.Intn(n)
			byClass[c] = append(byClass[c], node)
		}
		var classes [][]int32
		for c := 0; c < n; c++ {
			if len(byClass[c]) > 1 {
				rng.Shuffle(len(byClass[c]), func(i, j int) { byClass[c][i], byClass[c][j] = byClass[c][j], byClass[c][i] })
				classes = append(classes, byClass[c])
			}
		}
		return classes
	}
	expand := func(classes [][]int32) map[eqrel.Pair]bool {
		set := make(map[eqrel.Pair]bool)
		for _, c := range classes {
			for i, a := range c {
				for _, b := range c[i+1:] {
					set[eqrel.MakePair(a, b)] = true
				}
			}
		}
		return set
	}
	minus := func(a, b map[eqrel.Pair]bool) []eqrel.Pair {
		var out []eqrel.Pair
		for p := range a {
			if !b[p] {
				out = append(out, p)
			}
		}
		slices.SortFunc(out, eqrel.Compare)
		return out
	}
	for i := 0; i < 500; i++ {
		n := 2 + rng.Intn(12)
		old, cur := partition(n), partition(n)
		added, removed := diffClasses(old, cur)
		if want := minus(expand(cur), expand(old)); !pairsEqual(added, want) {
			t.Fatalf("old %v cur %v: added %v, want %v", old, cur, added, want)
		}
		if want := minus(expand(old), expand(cur)); !pairsEqual(removed, want) {
			t.Fatalf("old %v cur %v: removed %v, want %v", old, cur, removed, want)
		}
	}
	if added, removed := diffClasses([][]int32{{3, 1, 2}}, [][]int32{{1, 2, 3}}); added != nil || removed != nil {
		t.Fatalf("a class that kept its members diffs to %v, %v", added, removed)
	}
}
