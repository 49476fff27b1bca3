package match

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/oracle"
)

// shape is a hand-written input for the leaf-path join with a pattern
// shape the generators never produce: every workload behind streamCases
// otherwise has tree patterns with forward hops. Graph is one
// "subject predicate object" triple per line in the tokens of the graph
// text format. Want is the candidate set L exactly, as "a~b" over
// entity IDs: each shape carries a near miss per leaf (L grows when the
// leaf drops out of the intersection) and a planted pair whose witness
// the join must not be stricter than (Same: what the chase identifies).
type shape struct {
	Name, Keys, Graph string
	Want, Same        []string
}

// parseShapeGraph reads a graph written one whitespace-separated triple
// per line.
func parseShapeGraph(text string) (*graph.Graph, error) {
	var tabbed strings.Builder
	for _, line := range strings.Split(text, "\n") {
		tabbed.WriteString(strings.Join(strings.Fields(line), "\t") + "\n")
	}
	return graph.ParseText(strings.NewReader(tabbed.String()))
}

func (s shape) build(t testing.TB) (*graph.Graph, *keys.Set) {
	t.Helper()
	g, err := parseShapeGraph(s.Graph)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	set, err := keys.ParseString(s.Keys)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return g, set
}

func shapes() []shape {
	// One literal under 2 000 subjects of an unkeyed type, two of which
	// also carry the selective value.
	var hub strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&hub, "u%d:crowd country \"US\"\n", i)
	}
	// One literal under 100 subjects of an unkeyed type, reached by the
	// keyed entities two hops out.
	var deepHub strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&deepHub, "u%d:crowd name \"H\"\n", i)
	}
	return []shape{{
		// The leaf sits behind an in-edge of x; a's own q-edge to "v3"
		// is not on the path and pairs it with nobody.
		Name: "in-edge-leaf",
		Keys: "key K for T {\n _w:W -p-> x\n _w:W -q-> v*\n}",
		Graph: `w1:W p a:T
			w1:W q "v1"
			w2:W p b:T
			w2:W q "v1"
			w3:W p c:T
			w3:W q "v2"
			w4:W p d:T
			w4:W p e:T
			w4:W q "v3"
			a:T q "v3"`,
		Want: []string{"a~b", "d~e"},
		Same: []string{"a~b", "d~e"},
	}, {
		// Three hops out, intermediates multi-valued; e4 reaches "n2"
		// through a node of the wrong type, e5 over the wrong predicate.
		Name: "three-hops-two-wildcards",
		Keys: "key K for T {\n x -p-> _a:A\n _a:A -q-> _b:B\n _b:B -r-> v*\n}",
		Graph: `e1:T p a1:A
			e1:T p a2:A
			a1:A q b1:B
			a1:A q b2:B
			a2:A q b3:B
			b1:B r "n1"
			b2:B r "n2"
			b3:B r "n3"
			e2:T p a3:A
			a3:A q b4:B
			a3:A q b5:B
			b4:B r "n9"
			b5:B r "n2"
			e3:T p a4:A
			a4:A q b6:B
			b6:B r "n7"
			e4:T p a5:A
			a5:A q c1:C
			c1:C r "n2"
			e5:T p a6:A
			a6:A s b7:B
			b7:B r "n2"`,
		Want: []string{"e1~e2"},
		Same: []string{"e1~e2"},
	}, {
		// Two pattern paths to the leaf, x-q->b-s->v the shorter: e3
		// lacks the long way round (a candidate the check rejects), e4
		// has only the long way (no candidate: no q-edge, no witness).
		Name: "cycle",
		Keys: "key K for T {\n x -p-> _a:A\n _a:A -r-> _b:B\n x -q-> _b:B\n _b:B -s-> v*\n}",
		Graph: `e1:T p a1:A
			a1:A r b1:B
			e1:T q b1:B
			b1:B s "m1"
			e2:T p a2:A
			a2:A r b2:B
			e2:T q b2:B
			b2:B s "m1"
			e3:T q b3:B
			b3:B s "m1"
			e4:T p a4:A
			a4:A r b4:B
			b4:B s "m1"`,
		Want: []string{"e1~e2", "e1~e3", "e2~e3"},
		Same: []string{"e1~e2"},
	}, {
		// A constant two hops out beside a value variable: e3 shares
		// the name but reaches "silver", e4 reaches "gold" under another
		// name, e5 carries "gold" one hop out.
		Name: "constant-at-depth-2",
		Keys: "key K for T {\n x -name-> n*\n x -p-> _m:M\n _m:M -kind-> \"gold\"\n}",
		Graph: `e1:T name "N"
			e1:T p m1:M
			m1:M kind "gold"
			e2:T name "N"
			e2:T p m2:M
			m2:M kind "gold"
			e3:T name "N"
			e3:T p m3:M
			m3:M kind "silver"
			e4:T name "Z"
			e4:T p m4:M
			m4:M kind "gold"
			e5:T name "N"
			e5:T kind "gold"`,
		Want: []string{"e1~e2"},
		Same: []string{"e1~e2"},
	}, {
		// One value variable under two branches; the path through _a
		// comes first in triple order. e3 agrees along it only (a
		// candidate the check rejects), e4 along the other only.
		Name: "shared-value-variable",
		Keys: "key K for T {\n x -p-> _a:A\n x -q-> _b:B\n _a:A -r-> v*\n _b:B -s-> v*\n}",
		Graph: `e1:T p a1:A
			e1:T q b1:B
			a1:A r "k1"
			b1:B s "k1"
			e2:T p a2:A
			e2:T q b2:B
			a2:A r "k1"
			b2:B s "k1"
			e3:T p a3:A
			a3:A r "k1"
			e3:T q b3:B
			b3:B s "k2"
			e4:T q b4:B
			b4:B s "k1"
			e4:T p a4:A
			a4:A r "k3"`,
		Want: []string{"e1~e2", "e1~e3", "e2~e3"},
		Same: []string{"e1~e2"},
	}, {
		// A radius-1 and a radius-2 key on one type: L is the union.
		Name: "radius-1-and-2",
		Keys: "key K1 for T {\n x -email-> m*\n}\nkey K2 for T {\n x -p-> _o:O\n _o:O -reg-> r*\n}",
		Graph: `e1:T email "x@"
			e2:T email "x@"
			e3:T p o3:O
			o3:O reg "R1"
			e4:T p o4:O
			o4:O reg "R1"
			e1:T p o1:O
			o1:O reg "R2"
			e5:T p o5:O
			o5:O reg "R2"
			e6:T email "y@"
			e6:T p o6:O
			o6:O reg "R9"`,
		Want: []string{"e1~e2", "e1~e5", "e3~e4"},
		Same: []string{"e1~e2", "e1~e5", "e2~e5", "e3~e4"},
	}, {
		// A hub literal beside a selective leaf: e3 differs on the
		// selective leaf, e4 on the hub; u0 and u1 agree on both and
		// are of another type.
		Name: "hub-value",
		Keys: "key K for T {\n x -country-> c*\n x -ssn-> s*\n}",
		Graph: hub.String() + `u0:crowd ssn "1"
			u1:crowd ssn "1"
			e1:T country "US"
			e1:T ssn "1"
			e2:T country "US"
			e2:T ssn "1"
			e3:T country "US"
			e3:T ssn "2"
			e4:T country "FR"
			e4:T ssn "1"`,
		Want: []string{"e1~e2"},
		Same: []string{"e1~e2"},
	}, {
		// The hub literal two hops out: its walk back examines the
		// crowd's edges, so the join memoizes its list (and not "K"'s).
		// e4 reaches "H" through a node of the wrong type, e5 reaches
		// "K".
		Name: "hub-behind-two-hops",
		Keys: "key K for T {\n x -p-> _a:A\n _a:A -name-> n*\n}",
		Graph: deepHub.String() + `e1:T p a1:A
			a1:A name "H"
			e2:T p a2:A
			a2:A name "H"
			e3:T p a3:A
			a3:A name "H"
			e4:T p b4:B
			b4:B name "H"
			e5:T p a5:A
			a5:A name "K"`,
		Want: []string{"e1~e2", "e1~e3", "e2~e3"},
		Same: []string{"e1~e2", "e1~e3", "e2~e3"},
	}, {
		// The only leaf hangs off an entity variable: (a, b) is a
		// candidate before m1 ~ m2 is known, (a, d) share the maker.
		Name: "leaf-off-entity-variable",
		Keys: "key K for T {\n x -made_by-> $y:maker\n $y:maker -name-> n*\n}\nkey M for maker {\n x -name-> n*\n}",
		Graph: `a:T made_by m1:maker
			m1:maker name "ACME"
			b:T made_by m2:maker
			m2:maker name "ACME"
			c:T made_by m3:maker
			m3:maker name "Other"
			d:T made_by m1:maker`,
		Want: []string{"a~b", "a~d", "b~d", "m1~m2"},
		Same: []string{"a~b", "a~d", "b~d", "m1~m2"},
	}, {
		// Two bindings of the wildcard at (e1, e2), in adjacency order:
		// (b1, c1), which KB's candidate puts in EMVC's product graph
		// but under which no q-value is shared, then (b2, c2), under
		// which K identifies the pair. Sibling forks must bind _z apart;
		// e3's q-value is the near miss.
		Name: "sibling-forks",
		Keys: "key K for A {\n x -r-> _z:B\n _z:B -q-> v*\n}\nkey KB for B {\n x -tag-> t*\n}",
		Graph: `e1:A r b1:B
			e1:A r b2:B
			e2:A r c1:B
			e2:A r c2:B
			e3:A r b3:B
			b1:B q "1"
			c1:B q "2"
			b2:B q "3"
			c2:B q "3"
			b3:B q "4"
			b1:B tag "t1"
			c1:B tag "t1"
			b2:B tag "t2"
			c2:B tag "t2"
			b3:B tag "t3"`,
		Want: []string{"b1~c1", "b2~c2", "e1~e2"},
		Same: []string{"b1~c1", "b2~c2", "e1~e2"},
	}}
}

// TestCandidateShapes pins L exactly on every hand-written shape (the
// property tests run on them too, through streamCases).
// TestShapesAgainstOracle holds each shape's planted pairs to the
// definition.
func TestCandidateShapes(t *testing.T) {
	for _, s := range shapes() {
		t.Run(s.Name, func(t *testing.T) {
			g, set := s.build(t)
			m, err := New(g, set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, tid := range m.KeyedTypes() {
				if !m.IndexableType(tid) {
					t.Fatalf("type %s is not indexable: the shape sweeps instead of joining", g.TypeName(tid))
				}
			}
			var got []string
			for pr := range m.CandidateStream() {
				got = append(got, g.Label(graph.NodeID(pr.A))+"~"+g.Label(graph.NodeID(pr.B)))
			}
			slices.Sort(got)
			if !slices.Equal(got, s.Want) {
				t.Errorf("L = %v, want %v", got, s.Want)
			}
		})
	}
}

// TestShapesAgainstOracle holds each shape's planted pairs to the
// definition: oracle.Chase shares no code with the checkers or the
// join, so a Same that the chase and the join agree on by a shared bug
// still fails here.
func TestShapesAgainstOracle(t *testing.T) {
	for _, s := range shapes() {
		g, set := s.build(t)
		var same []string
		for _, pr := range oracle.Chase(g, set, nil) {
			same = append(same, g.Label(pr.A)+"~"+g.Label(pr.B))
		}
		slices.Sort(same)
		if !slices.Equal(same, s.Same) {
			t.Errorf("%s: the oracle identifies %v, want %v", s.Name, same, s.Same)
		}
	}
}

// TestHubShapeMemoizes checks that the stream of the hub-behind-two-hops
// shape memoizes the hub's member list, whose walk examines the crowd's
// edges for 3 members, and only it: "K"'s walk examines 2 edges for its
// one member. With the memo deleted no list is memoized, and with its
// ratio test inverted only "K"'s; either way the fuzz corpus seeded
// from the shape would not reach the memoized path.
func TestHubShapeMemoizes(t *testing.T) {
	i := slices.IndexFunc(shapes(), func(s shape) bool { return s.Name == "hub-behind-two-hops" })
	g, set := shapes()[i].build(t)
	m, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := &join{m: m, members: make(map[uint64][]graph.NodeID)}
	rowsOf(j, m.keyedEntities())
	hub, _ := g.Value("H")
	ck := m.KeysFor(mustType(t, g, "T"))[0]
	if _, ok := j.members[uint64(ck.leafSlot)<<32|uint64(uint32(hub))]; !ok || len(j.members) != 1 {
		t.Errorf("%d member lists memoized, the hub's among them: %v; want the hub's alone", len(j.members), ok)
	}
}

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
