package match

import (
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
)

// allocMatcher compiles the synthetic workload with near misses: pairs
// at recursive levels that share their attribute value but not their
// children, so their checks pass the x-local filter and fail in the
// guided search. At radius 2 the keys reach their values through a
// wildcard, so the join memoizes its member lists; at radius 1 they
// read them off x, so QuickPaired rejects pairs without a shared value.
func allocMatcher(t *testing.T, radius int) *Matcher {
	t.Helper()
	c := gen.DefaultSynthetic()
	c.NearMissFraction, c.Radius = 0.3, radius
	w, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(w.Graph, w.Keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFailingCheckAllocatesNothing holds ROADMAP item 11's bars on the
// checks: a failing IdentifiedByKeyProvenance allocates at most one
// object — the search state and its slots live in the caller's frame,
// and provenance is built only on success — and a failing QuickPaired
// none. The search runs on every (candidate, key) call that fails past
// the designated node; QuickPaired on same-type pairs of a radius-1
// input.
func TestFailingCheckAllocatesNothing(t *testing.T) {
	m := allocMatcher(t, 2)
	eq := eqrel.New(m.G.NumNodes())
	searched, quick := 0, 0
	for pr := range m.CandidateStream() {
		e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
		for _, ck := range m.KeysFor(m.G.TypeOf(e1)) {
			if ok, _, _, steps := m.IdentifiedByKeyProvenance(ck, e1, e2, eq); ok || steps == 0 {
				continue
			}
			searched++
			if n := testing.AllocsPerRun(10, func() { m.IdentifiedByKeyProvenance(ck, e1, e2, eq) }); n > 1 {
				t.Fatalf("%s on (%d, %d): a failing IdentifiedByKeyProvenance allocates %v objects", ck.Key.Name, e1, e2, n)
			}
		}
	}
	m = allocMatcher(t, 1)
	for _, t0 := range m.KeyedTypes() {
		ents := m.G.EntitiesOfType(t0)
		for i := 1; i < len(ents) && quick < 50; i++ {
			for _, ck := range m.KeysFor(t0) {
				if !m.QuickPaired(ck, ents[0], ents[i]) {
					quick++
					if n := testing.AllocsPerRun(10, func() { m.QuickPaired(ck, ents[0], ents[i]) }); n != 0 {
						t.Fatalf("%s on (%d, %d): a failing QuickPaired allocates %v objects", ck.Key.Name, ents[0], ents[i], n)
					}
				}
			}
		}
	}
	if searched == 0 || quick == 0 {
		t.Fatalf("the inputs have %d failing searches and %d failing QuickPaired calls; want some of each", searched, quick)
	}
}

// TestWarmJoinRowAllocatesNothing holds the join to allocating per
// distinct member list, not per entity: once a CandidateStream's join
// has produced every keyed entity's row, producing them all again — the
// member lists memoized, the row's scratch grown — allocates nothing.
func TestWarmJoinRowAllocatesNothing(t *testing.T) {
	m := allocMatcher(t, 2)
	j := &join{m: m, members: make(map[memberKey][]graph.NodeID)}
	ents := m.KeyedEntities()
	partners := 0
	rows := func() {
		partners = 0
		for _, e := range ents {
			partners += len(j.row(m.G.TypeOf(graph.NodeID(e)), graph.NodeID(e)))
		}
	}
	rows()
	if len(j.members) == 0 || partners <= len(ents) {
		t.Fatalf("%d member lists memoized, %d partners over %d entities: the input does not exercise the join", len(j.members), partners, len(ents))
	}
	if n := testing.AllocsPerRun(1, rows); n != 0 {
		t.Errorf("the warmed rows of %d entities allocate %v objects", len(ents), n)
	}
}
