package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildG1 constructs the music fragment G1 of the paper (Fig. 2).
func buildG1(t *testing.T) *Graph {
	t.Helper()
	g := New()
	alb1 := g.MustAddEntity("alb1", "album")
	alb2 := g.MustAddEntity("alb2", "album")
	alb3 := g.MustAddEntity("alb3", "album")
	art1 := g.MustAddEntity("art1", "artist")
	art2 := g.MustAddEntity("art2", "artist")
	art3 := g.MustAddEntity("art3", "artist")
	anthology := g.AddValue("Anthology 2")
	y1996 := g.AddValue("1996")
	beatles := g.AddValue("The Beatles")
	farnham := g.AddValue("John Farnham")
	g.MustAddTriple(alb1, "name_of", anthology)
	g.MustAddTriple(alb2, "name_of", anthology)
	g.MustAddTriple(alb3, "name_of", anthology)
	g.MustAddTriple(alb1, "release_year", y1996)
	g.MustAddTriple(alb2, "release_year", y1996)
	g.MustAddTriple(alb1, "recorded_by", art1)
	g.MustAddTriple(alb2, "recorded_by", art2)
	g.MustAddTriple(alb3, "recorded_by", art3)
	g.MustAddTriple(art1, "name_of", beatles)
	g.MustAddTriple(art2, "name_of", beatles)
	g.MustAddTriple(art3, "name_of", farnham)
	return g
}

func TestBuildAndAccessors(t *testing.T) {
	g := buildG1(t)
	if got, want := g.NumTriples(), 11; got != want {
		t.Fatalf("NumTriples = %d, want %d", got, want)
	}
	if got, want := g.NumEntities(), 6; got != want {
		t.Fatalf("NumEntities = %d, want %d", got, want)
	}
	if got, want := g.NumNodes(), 10; got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	alb1, ok := g.Entity("alb1")
	if !ok {
		t.Fatal("alb1 not found")
	}
	if !g.IsEntity(alb1) || g.IsValue(alb1) {
		t.Error("alb1 should be an entity")
	}
	if g.TypeName(g.TypeOf(alb1)) != "album" {
		t.Errorf("alb1 type = %q, want album", g.TypeName(g.TypeOf(alb1)))
	}
	v, ok := g.Value("Anthology 2")
	if !ok || !g.IsValue(v) {
		t.Fatal("value node missing")
	}
	if g.Label(v) != "Anthology 2" {
		t.Errorf("Label = %q", g.Label(v))
	}
	albumType, ok := g.TypeByName("album")
	if !ok {
		t.Fatal("album type missing")
	}
	if got := len(g.EntitiesOfType(albumType)); got != 3 {
		t.Errorf("albums = %d, want 3", got)
	}
	if _, ok := g.TypeByName("nosuch"); ok {
		t.Error("TypeByName(nosuch) should fail")
	}
	if _, ok := g.PredByName("nosuch"); ok {
		t.Error("PredByName(nosuch) should fail")
	}
}

func TestAddEntityTypeConflict(t *testing.T) {
	g := New()
	g.MustAddEntity("e1", "album")
	if _, err := g.AddEntity("e1", "artist"); err == nil {
		t.Fatal("expected type-conflict error")
	}
	// Same type is idempotent.
	n1 := g.MustAddEntity("e1", "album")
	n2 := g.MustAddEntity("e1", "album")
	if n1 != n2 {
		t.Fatalf("idempotent AddEntity returned %d then %d", n1, n2)
	}
}

func TestAddTripleValidation(t *testing.T) {
	g := New()
	e := g.MustAddEntity("e", "t")
	v := g.AddValue("lit")
	if err := g.AddTriple(v, "p", e); err == nil {
		t.Error("value subject should be rejected")
	}
	if err := g.AddTriple(NodeID(99), "p", e); err == nil {
		t.Error("unknown subject should be rejected")
	}
	if err := g.AddTriple(e, "p", NodeID(99)); err == nil {
		t.Error("unknown object should be rejected")
	}
	if err := g.AddTriple(e, "p", v); err != nil {
		t.Fatalf("valid triple rejected: %v", err)
	}
	if err := g.AddTriple(e, "p", v); err != nil {
		t.Fatalf("duplicate triple errored: %v", err)
	}
	if g.NumTriples() != 1 {
		t.Fatalf("duplicate triple counted: %d", g.NumTriples())
	}
}

func TestHasTripleAndEdges(t *testing.T) {
	g := buildG1(t)
	alb1, _ := g.Entity("alb1")
	art1, _ := g.Entity("art1")
	rb, ok := g.PredByName("recorded_by")
	if !ok {
		t.Fatal("recorded_by missing")
	}
	if !g.HasTriple(alb1, rb, art1) {
		t.Error("HasTriple(alb1, recorded_by, art1) = false")
	}
	if g.HasTriple(art1, rb, alb1) {
		t.Error("reverse triple should not exist")
	}
	// alb1 out: name_of, release_year, recorded_by.
	if got := len(g.Out(alb1)); got != 3 {
		t.Errorf("out-degree(alb1) = %d, want 3", got)
	}
	// art1 in: recorded_by from alb1.
	if got := len(g.In(art1)); got != 1 {
		t.Errorf("in-degree(art1) = %d, want 1", got)
	}
	if got := g.Degree(alb1); got != 3 {
		t.Errorf("Degree(alb1) = %d, want 3", got)
	}
}

func TestNeighborhood(t *testing.T) {
	g := buildG1(t)
	alb1, _ := g.Entity("alb1")
	art1, _ := g.Entity("art1")
	art2, _ := g.Entity("art2")

	n0 := g.Neighborhood(alb1, 0)
	if n0.Len() != 1 || !n0.Contains(alb1) {
		t.Fatalf("0-neighborhood = %d nodes", n0.Len())
	}
	n1 := g.Neighborhood(alb1, 1)
	// alb1 plus name, year, art1.
	if n1.Len() != 4 {
		t.Fatalf("1-neighborhood = %d nodes, want 4", n1.Len())
	}
	if !n1.Contains(art1) {
		t.Error("1-neighborhood should contain art1")
	}
	n2 := g.Neighborhood(alb1, 2)
	// +alb2, alb3 (via shared name/year values) and "The Beatles".
	if !n2.Contains(art1) {
		t.Error("2-neighborhood should contain art1")
	}
	if n2.Contains(art2) {
		t.Error("2-neighborhood should not contain art2 (3 hops away)")
	}
	n3 := g.Neighborhood(alb1, 3)
	if !n3.Contains(art2) {
		t.Error("3-neighborhood should contain art2")
	}
	// Whole graph at large d.
	nAll := g.Neighborhood(alb1, 10)
	if nAll.Len() != g.NumNodes() {
		t.Errorf("10-neighborhood = %d nodes, want %d (graph is connected)", nAll.Len(), g.NumNodes())
	}
}

func TestNodeSetSemantics(t *testing.T) {
	var nilSet *NodeSet
	if !nilSet.Contains(5) {
		t.Error("nil set must contain everything")
	}
	if nilSet.Len() != -1 {
		t.Error("nil set length must be -1")
	}
	nilSet.Each(func(NodeID) { t.Error("Each on a nil set must be a no-op") })
	s := NewNodeSet()
	s.Add(1)
	s.Add(2)
	s.Add(3)
	s.Add(2) // duplicate
	if s.Len() != 3 || !s.Contains(3) {
		t.Errorf("add failed: len=%d", s.Len())
	}
	count := 0
	s.Each(func(NodeID) { count++ })
	if count != 3 {
		t.Errorf("Each visited %d, want 3", count)
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := buildG1(t)
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTriples() != g.NumTriples() || g2.NumNodes() != g.NumNodes() {
		t.Fatalf("round trip: %d/%d triples, %d/%d nodes",
			g2.NumTriples(), g.NumTriples(), g2.NumNodes(), g.NumNodes())
	}
	var buf2 bytes.Buffer
	if err := g2.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("text output is not canonical across a round trip")
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"fields", "a:T\tp\n"},
		{"badSubject", "noType\tp\t\"v\"\n"},
		{"badObjectEntity", "a:T\tp\tnoType\n"},
		{"badLiteral", "a:T\tp\t\"unterminated\n"},
		{"emptyPred", "a:T\t\t\"v\"\n"},
		{"valueSubjectViaTypeConflict", "a:T\tp\tb:T\nb:U\tp\t\"v\"\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseText(strings.NewReader(c.in)); err == nil {
				t.Errorf("ParseText(%q) succeeded, want error", c.in)
			}
		})
	}
}

func TestParseTextCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\n  \nalb1:album\tname_of\t\"x\"\n"
	g, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 1 {
		t.Fatalf("NumTriples = %d, want 1", g.NumTriples())
	}
}

func TestEntityIDWithColon(t *testing.T) {
	// External IDs may contain colons; the last colon splits off the type.
	in := "http://kb/e:1:album\tname_of\t\"x\"\n"
	g, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	n, ok := g.Entity("http://kb/e:1")
	if !ok {
		t.Fatal("colon-bearing ID not found")
	}
	if g.TypeName(g.TypeOf(n)) != "album" {
		t.Errorf("type = %q", g.TypeName(g.TypeOf(n)))
	}
}

func TestEachTripleAndEachEntity(t *testing.T) {
	g := buildG1(t)
	nt := 0
	g.EachTriple(func(s NodeID, p PredID, o NodeID) {
		if !g.HasTriple(s, p, o) {
			t.Fatalf("EachTriple yielded non-triple (%d,%d,%d)", s, p, o)
		}
		nt++
	})
	if nt != g.NumTriples() {
		t.Errorf("EachTriple visited %d, want %d", nt, g.NumTriples())
	}
	ne := 0
	g.EachEntity(func(n NodeID) {
		if !g.IsEntity(n) {
			t.Fatalf("EachEntity yielded non-entity %d", n)
		}
		ne++
	})
	if ne != g.NumEntities() {
		t.Errorf("EachEntity visited %d, want %d", ne, g.NumEntities())
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("a")
	b := in.Intern("b")
	if a == b {
		t.Fatal("distinct strings shared an ID")
	}
	if in.Intern("a") != a {
		t.Fatal("re-interning changed the ID")
	}
	if got, ok := in.Lookup("b"); !ok || got != b {
		t.Fatal("Lookup(b) failed")
	}
	if _, ok := in.Lookup("c"); ok {
		t.Fatal("Lookup(c) should fail")
	}
	if in.Name(a) != "a" || in.Name(b) != "b" {
		t.Fatal("Name mismatch")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
}

// TestNodeSetQuick property-tests the set against a reference map
// implementation under random Add (in any order)/UnionSorted
// interleavings.
func TestNodeSetQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewNodeSet()
		ref := make(map[NodeID]bool)
		other := NewNodeSet()
		refOther := make(map[NodeID]bool)
		for i, op := range ops {
			n := NodeID(op % 500)
			switch i % 4 {
			case 0, 1:
				s.Add(n)
				ref[n] = true
			case 2:
				other.Add(n)
				refOther[n] = true
			case 3:
				s.ids = UnionSorted(s.ids, other.ids)
				for k := range refOther {
					ref[k] = true
				}
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for k := range ref {
			if !s.Contains(k) {
				return false
			}
		}
		for n := NodeID(0); n < 500; n++ {
			if s.Contains(n) != ref[n] {
				return false
			}
		}
		// Each visits exactly the members, strictly ascending.
		var visited []NodeID
		s.Each(func(n NodeID) {
			if !ref[n] {
				t.Errorf("Each yielded non-member %d", n)
			}
			if len(visited) > 0 && n <= visited[len(visited)-1] {
				t.Errorf("Each yielded %d after %d", n, visited[len(visited)-1])
			}
			visited = append(visited, n)
		})
		return len(visited) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeSetNegativeContains: out-of-range IDs are simply absent.
func TestNodeSetNegativeContains(t *testing.T) {
	s := NewNodeSet()
	s.Add(3)
	if s.Contains(-1) || s.Contains(1<<20) {
		t.Error("out-of-range membership")
	}
}

// TestNeighborhoodRandomInvariant checks, on random graphs, that the
// (d+1)-neighborhood contains the d-neighborhood, and that every node in
// the d-neighborhood is reachable within d undirected hops (by comparing
// against an independent BFS).
func TestNeighborhoodRandomInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 30, 60)
		start := NodeID(rng.Intn(g.NumNodes()))
		if !g.IsEntity(start) {
			continue
		}
		prev := g.Neighborhood(start, 0)
		for d := 1; d <= 4; d++ {
			cur := g.Neighborhood(start, d)
			prev.Each(func(n NodeID) {
				if !cur.Contains(n) {
					t.Fatalf("d=%d neighborhood lost node %d present at d-1", d, n)
				}
			})
			if dist := bfsDistances(g, start); true {
				cur.Each(func(n NodeID) {
					if dist[n] > d {
						t.Fatalf("node %d at distance %d included in %d-neighborhood", n, dist[n], d)
					}
				})
				for n, dd := range dist {
					if dd <= d && !cur.Contains(NodeID(n)) {
						t.Fatalf("node %d at distance %d missing from %d-neighborhood", n, dd, d)
					}
				}
			}
			prev = cur
		}
	}
}

func randomGraph(rng *rand.Rand, nEnt, nTrip int) *Graph {
	g := New()
	types := []string{"A", "B", "C"}
	ents := make([]NodeID, nEnt)
	for i := range ents {
		ents[i] = g.MustAddEntity(fmt.Sprintf("e%d", i), types[rng.Intn(len(types))])
	}
	preds := []string{"p", "q", "r"}
	for i := 0; i < nTrip; i++ {
		s := ents[rng.Intn(nEnt)]
		if rng.Intn(2) == 0 {
			g.MustAddTriple(s, preds[rng.Intn(len(preds))], ents[rng.Intn(nEnt)])
		} else {
			g.MustAddTriple(s, preds[rng.Intn(len(preds))], g.AddValue(fmt.Sprintf("v%d", rng.Intn(10))))
		}
	}
	return g
}

func bfsDistances(g *Graph, start NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = 1 << 30
	}
	dist[start] = 0
	queue := []NodeID{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.Out(n) {
			if dist[e.To] > dist[n]+1 {
				dist[e.To] = dist[n] + 1
				queue = append(queue, e.To)
			}
		}
		for _, e := range g.In(n) {
			if dist[e.To] > dist[n]+1 {
				dist[e.To] = dist[n] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}
