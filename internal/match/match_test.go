package match

import (
	"slices"
	"strings"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

func newMatcher(t *testing.T, g *graph.Graph, set *keys.Set) *Matcher {
	t.Helper()
	m, err := New(g, set, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// sweep returns the literal candidate set L of §4.1 for m's graph and
// keys — every same-type pair on which a matchable key is defined —
// collected from a FullSweep matcher.
func sweep(t *testing.T, m *Matcher) []eqrel.Pair {
	t.Helper()
	full, err := New(m.G, m.Set, Options{FullSweep: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return slices.Collect(full.CandidateStream())
}

func node(t *testing.T, g *graph.Graph, id string) graph.NodeID {
	t.Helper()
	n, ok := g.Entity(id)
	if !ok {
		t.Fatalf("entity %s missing", id)
	}
	return n
}

// TestValueBasedKeyIdentifies mirrors Example 7 round 1: Q2 identifies
// (alb1, alb2) under Eq0, and identifies nothing else.
func TestValueBasedKeyIdentifies(t *testing.T) {
	g := fixtures.MusicGraph()
	m := newMatcher(t, g, fixtures.MusicKeys())
	eq := eqrel.New(g.NumNodes())
	alb1, alb2, alb3 := node(t, g, "alb1"), node(t, g, "alb2"), node(t, g, "alb3")

	ok, by, _ := m.Identified(alb1, alb2, eq)
	if !ok {
		t.Fatal("Q2 should identify (alb1, alb2)")
	}
	if by.Key.Name != "Q2" {
		t.Errorf("identified by %s, want Q2 (cheap value-based key first)", by.Key.Name)
	}
	if ok, _, _ := m.Identified(alb1, alb3, eq); ok {
		t.Error("(alb1, alb3) must not be identified (different year/artist)")
	}
	if ok, _, _ := m.Identified(alb2, alb3, eq); ok {
		t.Error("(alb2, alb3) must not be identified")
	}
}

// TestRecursiveKeyNeedsEq mirrors Example 7 round 2: Q3 identifies
// (art1, art2) only after (alb1, alb2) is in Eq.
func TestRecursiveKeyNeedsEq(t *testing.T) {
	g := fixtures.MusicGraph()
	m := newMatcher(t, g, fixtures.MusicKeys())
	eq := eqrel.New(g.NumNodes())
	alb1, alb2 := node(t, g, "alb1"), node(t, g, "alb2")
	art1, art2 := node(t, g, "art1"), node(t, g, "art2")

	if ok, _, _ := m.Identified(art1, art2, eq); ok {
		t.Fatal("(art1, art2) must not be identified before their albums")
	}
	eq.Union(int32(alb1), int32(alb2))
	ok, by, _ := m.Identified(art1, art2, eq)
	if !ok {
		t.Fatal("(art1, art2) should be identified once (alb1, alb2) ∈ Eq")
	}
	if by.Key.Name != "Q3" {
		t.Errorf("identified by %s, want Q3", by.Key.Name)
	}
}

// TestWildcardNoIdentity mirrors Example 7 on G2: Q4 identifies
// (com4, com5) under Eq0 because the same-named parent is a wildcard.
func TestWildcardNoIdentity(t *testing.T) {
	g := fixtures.CompanyGraph()
	m := newMatcher(t, g, fixtures.CompanyKeys())
	eq := eqrel.New(g.NumNodes())
	com4, com5 := node(t, g, "com4"), node(t, g, "com5")
	ok, by, _ := m.Identified(com4, com5, eq)
	if !ok {
		t.Fatal("Q4 should identify (com4, com5) under Eq0")
	}
	if by.Key.Name != "Q4" {
		t.Errorf("identified by %s, want Q4", by.Key.Name)
	}
	com1, com2 := node(t, g, "com1"), node(t, g, "com2")
	ok, by, _ = m.Identified(com1, com2, eq)
	if !ok {
		t.Fatal("Q5 should identify (com1, com2) via shared children")
	}
	if by.Key.Name != "Q5" {
		t.Errorf("identified by %s, want Q5", by.Key.Name)
	}
	// No cross pairs.
	com0 := node(t, g, "com0")
	eq.Union(int32(com1), int32(com2))
	eq.Union(int32(com4), int32(com5))
	for _, other := range []graph.NodeID{com1, com4} {
		if ok, _, _ := m.Identified(com0, other, eq); ok {
			t.Errorf("(com0, %s) must not be identified", g.Label(other))
		}
	}
}

// TestConstantCondition checks Q6: equal zip codes identify UK streets
// but not US streets.
func TestConstantCondition(t *testing.T) {
	g := fixtures.AddressGraph()
	m := newMatcher(t, g, fixtures.AddressKeys())
	eq := eqrel.New(g.NumNodes())
	st1, st2, st3 := node(t, g, "st1"), node(t, g, "st2"), node(t, g, "st3")
	us1, us2 := node(t, g, "us1"), node(t, g, "us2")
	if ok, _, _ := m.Identified(st1, st2, eq); !ok {
		t.Error("Q6 should identify the duplicate UK streets")
	}
	if ok, _, _ := m.Identified(us1, us2, eq); ok {
		t.Error("Q6 must not identify US streets")
	}
	if ok, _, _ := m.Identified(st1, st3, eq); ok {
		t.Error("different zip codes must not be identified")
	}
}

// TestInjectivityWithinSide builds a case where the only way to match
// would map two pattern nodes to one graph node, which subgraph
// isomorphism forbids.
func TestInjectivityWithinSide(t *testing.T) {
	set, err := keys.ParseString(`
key K for t {
    x -p-> _a:u
    x -q-> _b:u
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	// e1 has distinct u-neighbors; e2 has a single u serving both edges.
	e1 := g.MustAddEntity("e1", "t")
	e2 := g.MustAddEntity("e2", "t")
	u1 := g.MustAddEntity("u1", "u")
	u2 := g.MustAddEntity("u2", "u")
	u3 := g.MustAddEntity("u3", "u")
	g.MustAddTriple(e1, "p", u1)
	g.MustAddTriple(e1, "q", u2)
	g.MustAddTriple(e2, "p", u3)
	g.MustAddTriple(e2, "q", u3)
	m := newMatcher(t, g, set)
	eq := eqrel.New(g.NumNodes())
	if ok, _, _ := m.Identified(e1, e2, eq); ok {
		t.Error("injectivity violated: e2's single u node matched two pattern nodes")
	}
}

// TestCrossSideSharingAllowed: the same graph node may appear on both
// sides of the combined search (ν1 and ν2 are independent valuations).
func TestCrossSideSharingAllowed(t *testing.T) {
	g := graph.New()
	a1 := g.MustAddEntity("a1", "album")
	a2 := g.MustAddEntity("a2", "album")
	art := g.MustAddEntity("art", "artist")
	name := g.AddValue("X")
	g.MustAddTriple(a1, "name_of", name)
	g.MustAddTriple(a2, "name_of", name)
	g.MustAddTriple(a1, "recorded_by", art)
	g.MustAddTriple(a2, "recorded_by", art)
	set, err := keys.ParseString(`
key Q1 for album {
    x -name_of-> name*
    x -recorded_by-> $y:artist
}`)
	if err != nil {
		t.Fatal(err)
	}
	m := newMatcher(t, g, set)
	eq := eqrel.New(g.NumNodes())
	if ok, _, _ := m.Identified(a1, a2, eq); !ok {
		t.Error("shared artist node (reflexive Eq pair) should allow identification")
	}
}

func TestUnmatchableKeyCompiles(t *testing.T) {
	g := fixtures.MusicGraph()
	set, err := keys.ParseString(`
key K for album {
    x -no_such_pred-> v*
}`)
	if err != nil {
		t.Fatal(err)
	}
	m := newMatcher(t, g, set)
	for _, ck := range m.KeysFor(mustType(t, g, "album")) {
		if ck.Matchable() {
			t.Error("key with unknown predicate compiled as matchable")
		}
	}
	alb1, alb2 := node(t, g, "alb1"), node(t, g, "alb2")
	if ok, _, _ := m.Identified(alb1, alb2, eqrel.New(g.NumNodes())); ok {
		t.Error("key with unknown predicate identified a pair")
	}
}

func mustType(t *testing.T, g *graph.Graph, name string) graph.TypeID {
	t.Helper()
	id, ok := g.TypeByName(name)
	if !ok {
		t.Fatalf("type %s missing", name)
	}
	return id
}

// TestDNeighborLocality: checking within the d-neighbors equals checking
// in the whole graph (§4.1 data locality), on the music fixture.
func TestDNeighborLocality(t *testing.T) {
	g := fixtures.MusicGraph()
	m := newMatcher(t, g, fixtures.MusicKeys())
	eq := eqrel.New(g.NumNodes())
	alb1, alb2 := node(t, g, "alb1"), node(t, g, "alb2")
	tid := mustType(t, g, "album")
	for _, ck := range m.KeysFor(tid) {
		inD, _ := m.IdentifiedByKey(ck, alb1, alb2, m.Neighborhood(alb1), m.Neighborhood(alb2), eq)
		whole, _ := m.IdentifiedByKey(ck, alb1, alb2, nil, nil, eq)
		if inD != whole {
			t.Errorf("%s: d-neighbor check = %v, whole graph = %v", ck.Key.Name, inD, whole)
		}
	}
}

// TestVF2AgreesOnFixtures: the enumerate-then-coincide baseline and the
// guided search agree on every candidate pair of the fixtures, at both
// Eq0 and a grown Eq.
func TestVF2AgreesOnFixtures(t *testing.T) {
	type fixture struct {
		name string
		g    *graph.Graph
		set  *keys.Set
	}
	for _, fx := range []fixture{
		{"music", fixtures.MusicGraph(), fixtures.MusicKeys()},
		{"company", fixtures.CompanyGraph(), fixtures.CompanyKeys()},
		{"address", fixtures.AddressGraph(), fixtures.AddressKeys()},
	} {
		t.Run(fx.name, func(t *testing.T) {
			m := newMatcher(t, fx.g, fx.set)
			eq := eqrel.New(fx.g.NumNodes())
			for round := 0; round < 3; round++ {
				for _, pr := range sweep(t, m) {
					e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
					g1, _, _ := m.Identified(e1, e2, eq)
					g2, _, _ := m.IdentifiedVF2(e1, e2, m.Neighborhood(e1), m.Neighborhood(e2), eq)
					if g1 != g2 {
						t.Fatalf("round %d pair (%s,%s): guided=%v vf2=%v",
							round, fx.g.Label(e1), fx.g.Label(e2), g1, g2)
					}
					if g1 {
						eq.Union(pr.A, pr.B)
					}
				}
			}
		})
	}
}

// TestWitness: the witness of a recursive identification contains the
// prerequisite pair.
func TestWitness(t *testing.T) {
	g := fixtures.MusicGraph()
	m := newMatcher(t, g, fixtures.MusicKeys())
	eq := eqrel.New(g.NumNodes())
	alb1, alb2 := node(t, g, "alb1"), node(t, g, "alb2")
	art1, art2 := node(t, g, "art1"), node(t, g, "art2")
	eq.Union(int32(alb1), int32(alb2))
	tid := mustType(t, g, "artist")
	var q3 *CompiledKey
	for _, ck := range m.KeysFor(tid) {
		if ck.Key.Name == "Q3" {
			q3 = ck
		}
	}
	ok, reqs, _, _ := m.IdentifiedByKeyProvenance(q3, art1, art2, eq)
	if !ok {
		t.Fatal("Q3 witness check failed")
	}
	if len(reqs) != 1 || reqs[0] != eqrel.MakePair(int32(alb1), int32(alb2)) {
		t.Errorf("witness requires = %v, want [(alb1, alb2)]", reqs)
	}
}

// TestCandidates checks L construction (§4.1): same-type pairs of keyed
// types only.
func TestCandidates(t *testing.T) {
	g := fixtures.MusicGraph()
	m := newMatcher(t, g, fixtures.MusicKeys())
	cands := sweep(t, m)
	// 3 albums -> 3 pairs; 3 artists -> 3 pairs.
	if len(cands) != 6 {
		t.Fatalf("len(L) = %d, want 6", len(cands))
	}
	for _, pr := range cands {
		if g.TypeOf(graph.NodeID(pr.A)) != g.TypeOf(graph.NodeID(pr.B)) {
			t.Error("candidate pair with mixed types")
		}
		if pr.A >= pr.B {
			t.Error("candidate pair not normalized")
		}
	}
}

// TestCandidatesOnlyKeyedTypes: a graph type with no key contributes no
// candidates.
func TestCandidatesOnlyKeyedTypes(t *testing.T) {
	g := fixtures.MusicGraph()
	g.MustAddEntity("x1", "label")
	g.MustAddEntity("x2", "label")
	m := newMatcher(t, g, fixtures.MusicKeys())
	for _, pr := range sweep(t, m) {
		tn := g.TypeName(g.TypeOf(graph.NodeID(pr.A)))
		if tn == "label" {
			t.Fatal("unkeyed type appeared in L")
		}
	}

	// A keyed type whose only key references a predicate absent from
	// the graph: no key can ever fire on it, so it contributes no
	// candidates either — with the joins and with the full sweep.
	set, err := keys.ParseString("key K for label {\n    x -no_such_pred-> n*\n}")
	if err != nil {
		t.Fatal(err)
	}
	for _, fullSweep := range []bool{false, true} {
		m, err := New(g, set, Options{FullSweep: fullSweep})
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Collect(m.CandidateStream()); len(got) != 0 {
			t.Errorf("FullSweep=%v: unmatchable key yields candidates %v, want none", fullSweep, got)
		}
	}
}

// TestPairingFiltersHopeless: a pair with no shared structure at all is
// filtered out by pairing.
func TestPairingFiltersHopeless(t *testing.T) {
	g := fixtures.MusicGraph()
	alb1, alb3 := node(t, g, "alb1"), node(t, g, "alb3")
	// alb1 and alb3 share name "Anthology 2" and are paired by Q1/Q2's
	// structure (both have name, artist; alb3 has no release_year though).
	// Q2 requires release_year on both; alb3 lacks it, Q1 requires
	// recorded_by which both have with same-named... artists differ in
	// name ("The Beatles" vs "John Farnham") but Q1's y is an entity var:
	// pairing does not check Eq, only type. So (alb1, alb3) stays paired
	// by Q1. Construct instead a pair with no shared name value:
	solo := g.MustAddEntity("solo", "album")
	g.MustAddTriple(solo, "name_of", g.AddValue("Unique Name"))
	m2 := newMatcher(t, g, fixtures.MusicKeys())
	if _, _, paired := m2.ReducedNeighborhoods(alb1, solo); paired {
		t.Error("(alb1, solo) share no name value; pairing should reject")
	}
	_ = alb3
	for _, pr := range sweep(t, m2) {
		if graph.NodeID(pr.A) != solo && graph.NodeID(pr.B) != solo {
			continue
		}
		if _, _, paired := m2.ReducedNeighborhoods(graph.NodeID(pr.A), graph.NodeID(pr.B)); paired {
			t.Errorf("%v: the solo album must be filtered from paired L", pr)
		}
	}
}

// TestReducedNeighborhoods: reduction preserves the identification
// outcome (§4.2) and never grows the node sets.
func TestReducedNeighborhoods(t *testing.T) {
	g := fixtures.CompanyGraph()
	m := newMatcher(t, g, fixtures.CompanyKeys())
	eq := eqrel.New(g.NumNodes())
	for _, pr := range sweep(t, m) {
		e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
		full, _, _ := m.Identified(e1, e2, eq)
		r1, r2, paired := m.ReducedNeighborhoods(e1, e2)
		if !paired {
			if full {
				t.Fatalf("(%s,%s) identified but not paired", g.Label(e1), g.Label(e2))
			}
			continue
		}
		if r1.Len() > m.Neighborhood(e1).Len() || r2.Len() > m.Neighborhood(e2).Len() {
			t.Errorf("(%s,%s): reduction grew the neighborhoods", g.Label(e1), g.Label(e2))
		}
		var got bool
		for _, ck := range m.KeysFor(g.TypeOf(e1)) {
			if ok, _ := m.IdentifiedByKey(ck, e1, e2, r1, r2, eq); ok {
				got = true
				break
			}
		}
		if got != full {
			t.Errorf("(%s,%s): reduced check = %v, full = %v", g.Label(e1), g.Label(e2), got, full)
		}
	}
}

// TestDependencyIndex: (art1, art2) depends on the album pairs in its
// neighborhoods.
func TestDependencyIndex(t *testing.T) {
	g := fixtures.MusicGraph()
	m := newMatcher(t, g, fixtures.MusicKeys())
	cands := sweep(t, m)
	idx := m.BuildDependencyIndexParallel(cands, 1)
	alb1 := node(t, g, "alb1")
	// alb1 is within 1 hop of art1; artist pairs involving art1 depend on it.
	foundArtistPair := false
	for _, i := range idx.Active([]int32{int32(alb1)}, nil) {
		pr := cands[i]
		if g.TypeName(g.TypeOf(graph.NodeID(pr.A))) == "artist" {
			foundArtistPair = true
		}
	}
	if !foundArtistPair {
		t.Error("no artist pair depends on alb1")
	}
}

// TestValueEqSimilarity exercises the pluggable value-equality hook
// (paper Remark (1)) with a case-insensitive matcher.
func TestValueEqSimilarity(t *testing.T) {
	g := graph.New()
	a1 := g.MustAddEntity("a1", "album")
	a2 := g.MustAddEntity("a2", "album")
	g.MustAddTriple(a1, "name_of", g.AddValue("anthology"))
	g.MustAddTriple(a2, "name_of", g.AddValue("ANTHOLOGY"))
	g.MustAddTriple(a1, "release_year", g.AddValue("1996"))
	g.MustAddTriple(a2, "release_year", g.AddValue("1996"))
	set, err := keys.ParseString(`
key Q2 for album {
    x -name_of-> name*
    x -release_year-> year*
}`)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eq := eqrel.New(g.NumNodes())
	if ok, _, _ := exact.Identified(a1, a2, eq); ok {
		t.Error("exact equality must not match different case")
	}
	ci, err := New(g, set, Options{ValueEq: strings.EqualFold})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := ci.Identified(a1, a2, eq); !ok {
		t.Error("case-insensitive ValueEq should match")
	}
	// Pairing must respect the custom predicate too.
	if _, _, paired := ci.ReducedNeighborhoods(a1, a2); !paired {
		t.Error("pairing with custom ValueEq should succeed")
	}
}

// TestSelfLoopPattern: a pattern triple x -p-> x requires a graph
// self-loop on both entities.
func TestSelfLoopPattern(t *testing.T) {
	set, err := keys.ParseString(`
key K for t {
    x -self-> x
    x -name-> v*
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	e1 := g.MustAddEntity("e1", "t")
	e2 := g.MustAddEntity("e2", "t")
	e3 := g.MustAddEntity("e3", "t")
	v := g.AddValue("n")
	g.MustAddTriple(e1, "self", e1)
	g.MustAddTriple(e2, "self", e2)
	g.MustAddTriple(e1, "name", v)
	g.MustAddTriple(e2, "name", v)
	g.MustAddTriple(e3, "name", v) // no self-loop
	m := newMatcher(t, g, set)
	eq := eqrel.New(g.NumNodes())
	if ok, _, _ := m.Identified(e1, e2, eq); !ok {
		t.Error("self-loop pair should be identified")
	}
	if ok, _, _ := m.Identified(e1, e3, eq); ok {
		t.Error("e3 lacks the self-loop; must not be identified")
	}
	// The VF2 baseline must agree.
	if ok, _, _ := m.IdentifiedVF2(e1, e2, m.Neighborhood(e1), m.Neighborhood(e2), eq); !ok {
		t.Error("VF2: self-loop pair should be identified")
	}
	if ok, _, _ := m.IdentifiedVF2(e1, e3, m.Neighborhood(e1), m.Neighborhood(e3), eq); ok {
		t.Error("VF2: e3 lacks the self-loop")
	}
}

// TestIdentityView: the Identity EqView relates only equal IDs.
func TestIdentityView(t *testing.T) {
	id := Identity()
	if !id.Same(3, 3) || id.Same(3, 4) {
		t.Error("Identity() misbehaves")
	}
}

// TestLazyRefreshDropsMemo checks that Neighborhood keeps no memo
// across a mutation: after Refresh it reads the graph as it is now,
// and the sets it handed out before stay as they were.
func TestLazyRefreshDropsMemo(t *testing.T) {
	g := graph.New()
	a := g.MustAddEntity("a", "t")
	b := g.MustAddEntity("b", "t")
	c := g.MustAddEntity("c", "t")
	g.MustAddTriple(a, "p", b)
	set, err := keys.ParseString("key K for t {\n x -name-> n*\n}")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	members := func(ns *graph.NodeSet) []graph.NodeID {
		var out []graph.NodeID
		ns.Each(func(n graph.NodeID) { out = append(out, n) })
		return out
	}
	first := m.Neighborhood(a)
	if got := members(first); !slices.Equal(got, []graph.NodeID{a, b}) {
		t.Fatalf("Neighborhood(a) = %v, want [a b]", got)
	}
	g.MustAddTriple(a, "p", c)
	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := members(m.Neighborhood(a)); !slices.Equal(got, []graph.NodeID{a, b, c}) {
		t.Fatalf("Neighborhood(a) after the mutation = %v, want [a b c]", got)
	}
	if got := members(first); !slices.Equal(got, []graph.NodeID{a, b}) {
		t.Fatalf("the set handed out before Refresh changed to %v", got)
	}
}
