package match

import (
	"fmt"
	"testing"

	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

// hubMatcher compiles the join's hub input: keyed T entities each reach
// one literal, the hub, over a two-hop leaf through an A node of their
// own (x -p-> _a:A -name-> n*), and offType subjects of an unkeyed type
// carry the same literal under the same predicate. Every row walks back
// from the hub, and most of the edges that walk examines lead to
// subjects the leaf does not admit.
func hubMatcher(tb testing.TB, keyed, offType int) (*Matcher, graph.NodeID) {
	tb.Helper()
	set, err := keys.ParseString("key K for T {\n x -p-> _a:A\n _a:A -name-> n*\n}")
	if err != nil {
		tb.Fatal(err)
	}
	g := graph.New()
	hub := g.AddValue("hub")
	for i := 0; i < offType; i++ {
		g.MustAddTriple(g.MustAddEntity(fmt.Sprintf("u%d", i), "U"), "name", hub)
	}
	for i := 0; i < keyed; i++ {
		a := g.MustAddEntity(fmt.Sprintf("a%d", i), "A")
		g.MustAddTriple(g.MustAddEntity(fmt.Sprintf("e%d", i), "T"), "p", a)
		g.MustAddTriple(a, "name", hub)
	}
	m, err := New(g, set, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return m, hub
}

// rowsOf produces the rows of ents on j, as CandidateStream does, and
// returns their summed length.
func rowsOf(j *join, ents []int32) int {
	partners := 0
	for _, e := range ents {
		partners += len(j.row(j.m.G.TypeOf(graph.NodeID(e)), graph.NodeID(e)))
	}
	return partners
}

// TestJoinWorkBoundedAtHub holds the join's walks on the hub input to a
// small multiple of the hub's in-degree plus the rows' summed length:
// the hub's member list is walked back once and memoized, and every
// later row pays its merge over the list, not the walk. The edges
// counted are every edge the stream's walks examine (join.examined).
// Deleting the memo, or inverting the memo rule's ratio test, walks the
// hub back once per row: 3 001 000 edges examined against a bound of
// 511 000 (7 000 with the memo).
func TestJoinWorkBoundedAtHub(t *testing.T) {
	const keyed, offType = 500, 5000
	m, hub := hubMatcher(t, keyed, offType)
	j := &join{m: m, members: make(map[uint64][]graph.NodeID)}
	partners := rowsOf(j, m.keyedEntities())
	if partners != keyed*keyed {
		t.Fatalf("rows hold %d partners, want %d", partners, keyed*keyed)
	}
	if bound := 2 * (len(m.G.In(hub)) + partners); j.examined > bound {
		t.Errorf("the walks examine %d edges, over 2 × (in-degree %d + %d partners) = %d", j.examined, len(m.G.In(hub)), partners, bound)
	}
	t.Logf("%d edges examined, %d member lists memoized", j.examined, len(j.members))
}

// BenchmarkCandidateStreamHub streams L on the hub input of
// TestJoinWorkBoundedAtHub: 124 750 candidates, every row the hub's
// member list.
func BenchmarkCandidateStreamHub(b *testing.B) {
	m, _ := hubMatcher(b, 500, 5000)
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		for range m.CandidateStream() {
			n++
		}
	}
	b.ReportMetric(float64(n), "candidates")
}
