package match

import (
	"slices"
	"testing"

	"graphkeys/internal/fixtures"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

// partnerLabels collects PartnerStream(e), checks it against the row
// view of the collected candidate stream — exactly the q with {e, q}
// in L, ascending — and returns the partners' labels.
func partnerLabels(t *testing.T, m *Matcher, e graph.NodeID) map[string]bool {
	t.Helper()
	got := slices.Collect(m.PartnerStream(e))
	var row []graph.NodeID
	for pr := range m.CandidateStream() {
		switch e {
		case graph.NodeID(pr.A):
			row = append(row, graph.NodeID(pr.B))
		case graph.NodeID(pr.B):
			row = append(row, graph.NodeID(pr.A))
		}
	}
	slices.Sort(row)
	if !slices.Equal(got, row) {
		t.Errorf("PartnerStream(%s) = %v, row of the candidate stream is %v", m.G.Label(e), got, row)
	}
	out := make(map[string]bool)
	for _, p := range got {
		out[m.G.Label(p)] = true
	}
	return out
}

// TestPartnerStreamRadius1 checks the pure posting-list path: partners
// of an entity are exactly the same-type entities sharing an out-edge
// (p, v) to an interned value node.
func TestPartnerStreamRadius1(t *testing.T) {
	g := fixtures.MusicGraph()
	m, err := New(g, fixtures.MusicKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := partnerLabels(t, m, fixtures.Node(g, "alb1"))
	// alb2 and alb3 share name_of "Anthology 2"; artists are not
	// same-type and must not appear.
	if len(got) != 2 || !got["alb2"] || !got["alb3"] {
		t.Errorf("partners(alb1) = %v, want {alb2, alb3}", got)
	}
	got = partnerLabels(t, m, fixtures.Node(g, "art3"))
	// art3's name "John Farnham" is unique: no partner shares a value.
	if len(got) != 0 {
		t.Errorf("partners(art3) = %v, want none", got)
	}
	got = partnerLabels(t, m, fixtures.Node(g, "art1"))
	if len(got) != 1 || !got["art2"] {
		t.Errorf("partners(art1) = %v, want {art2}", got)
	}
}

// TestPartnerStreamRadius2 checks the d > 1 path: the shared value sits
// two hops out, behind a wildcard entity.
func TestPartnerStreamRadius2(t *testing.T) {
	g := graph.New()
	a := g.MustAddEntity("a", "T")
	b := g.MustAddEntity("b", "T")
	c := g.MustAddEntity("c", "T")
	ma := g.MustAddEntity("ma", "M")
	mb := g.MustAddEntity("mb", "M")
	mc := g.MustAddEntity("mc", "M")
	shared := g.AddValue("shared")
	g.MustAddTriple(a, "p", ma)
	g.MustAddTriple(b, "p", mb)
	g.MustAddTriple(c, "p", mc)
	g.MustAddTriple(ma, "q", shared)
	g.MustAddTriple(mb, "q", shared)
	g.MustAddTriple(mc, "q", g.AddValue("other"))
	set, err := keys.ParseString("key K for T {\n    x -p-> _m:M\n    _m:M -q-> n*\n}")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := m.dByType[g.TypeOf(a)]; d != 2 {
		t.Fatalf("radius = %d, want 2", d)
	}
	got := partnerLabels(t, m, a)
	if len(got) != 1 || !got["b"] {
		t.Errorf("partners(a) = %v, want {b}", got)
	}
}

// TestPartnerStreamFallback: a type with an anchor-free key (or a
// custom ValueEq) must fall back to every other same-type entity.
func TestPartnerStreamFallback(t *testing.T) {
	g := graph.New()
	a := g.MustAddEntity("a", "T")
	b := g.MustAddEntity("b", "T")
	c := g.MustAddEntity("c", "T")
	u := g.MustAddEntity("u", "U")
	g.MustAddTriple(a, "owns", u)
	g.MustAddTriple(b, "owns", u)
	_ = c
	set, err := keys.ParseString("key K for T {\n    x -owns-> _:U\n}")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.IndexableType(g.TypeOf(a)) {
		t.Fatal("anchor-free key reported indexable")
	}
	got := partnerLabels(t, m, a)
	if len(got) != 2 || !got["b"] || !got["c"] {
		t.Errorf("partners(a) = %v, want {b, c}", got)
	}

	// Same graph with an anchored key but a custom ValueEq: still not
	// indexable, because distinct nodes may compare equal.
	g2 := fixtures.MusicGraph()
	m2, err := New(g2, fixtures.MusicKeys(), Options{ValueEq: func(x, y string) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if m2.IndexableType(g2.TypeOf(fixtures.Node(g2, "alb1"))) {
		t.Fatal("custom ValueEq reported indexable")
	}
}

// TestDependencyIndexOverlappingNeighborhoods: when the two sides of a
// candidate pair share d-neighborhood entities (here a single artist
// recorded on both albums), the dependency index must register the
// pair once per entity — order-independently — not once per
// neighborhood it appears in.
func TestDependencyIndexOverlappingNeighborhoods(t *testing.T) {
	g := graph.New()
	alb1 := g.MustAddEntity("alb1", "album")
	alb2 := g.MustAddEntity("alb2", "album")
	art1 := g.MustAddEntity("art1", "artist")
	name := g.AddValue("Anthology 2")
	g.MustAddTriple(alb1, "name_of", name)
	g.MustAddTriple(alb2, "name_of", name)
	// art1 lies in the 1-hop neighborhood of BOTH albums.
	g.MustAddTriple(alb1, "recorded_by", art1)
	g.MustAddTriple(alb2, "recorded_by", art1)
	g.MustAddTriple(art1, "name_of", g.AddValue("The Beatles"))

	m, err := New(g, fixtures.MusicKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cands := sweep(t, m)
	idx := m.BuildDependencyIndexParallel(cands, 1)
	ds := idx.Active([]int32{int32(art1)}, nil)
	if len(ds) != 1 {
		t.Fatalf("Active(art1) = %v, want the (alb1, alb2) pair exactly once", ds)
	}
	pr := cands[ds[0]]
	if graph.NodeID(pr.A) != alb1 || graph.NodeID(pr.B) != alb2 {
		t.Errorf("Active(art1) points at pair (%d, %d), want (alb1, alb2)", pr.A, pr.B)
	}
}
