package match

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/pattern"
)

// definitionPairing is the maximum pairing relation of ck at (e1, e2)
// as Proposition 9 defines it, with x pinned to (e1, e2): every locally
// compatible tuple of G1^d × G2^d, then sweeps that delete tuples
// lacking support for an incident pattern triple until none does. It is
// the reference ComputePairing is held to; it costs the product of the
// two neighbourhoods per pattern node.
func definitionPairing(m *Matcher, ck *CompiledKey, e1, e2 graph.NodeID, g1d, g2d *graph.NodeSet) map[tuple]bool {
	g := m.G
	members := func(set *graph.NodeSet) (out []graph.NodeID) {
		for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
			if set.Contains(n) {
				out = append(out, n)
			}
		}
		return out
	}
	valueEq := func(a, b graph.NodeID) bool {
		if m.Opts.ValueEq == nil {
			return g.Label(a) == g.Label(b)
		}
		return m.Opts.ValueEq(g.Label(a), g.Label(b))
	}
	rel := make(map[tuple]bool)
	side1, side2 := members(g1d), members(g2d)
	for q, n := range ck.nodes {
		for _, a := range side1 {
			for _, b := range side2 {
				var ok bool
				switch n.kind {
				case pattern.Designated:
					ok = a == e1 && b == e2 && g.IsEntityOfType(a, n.typ) && g.IsEntityOfType(b, n.typ)
				case pattern.EntityVar, pattern.Wildcard:
					ok = g.IsEntityOfType(a, n.typ) && g.IsEntityOfType(b, n.typ)
				case pattern.ValueVar:
					ok = g.IsValue(a) && g.IsValue(b) && valueEq(a, b)
				case pattern.Const:
					ok = g.IsValue(a) && g.IsValue(b) && valueEq(a, n.constID) && valueEq(b, n.constID)
				}
				if ok {
					rel[tuple{a, b, int32(q)}] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for t := range rel {
			for _, ti := range ck.incident[t.q] {
				tr := ck.triples[ti]
				if tr.subj == int(t.q) && len(supporters(g, rel, t, tr.pred, true, tr.obj, g1d, g2d)) == 0 ||
					tr.obj == int(t.q) && len(supporters(g, rel, t, tr.pred, false, tr.subj, g1d, g2d)) == 0 {
					delete(rel, t)
					changed = true
					break
				}
			}
		}
	}
	return rel
}

// supporters lists the tuples of rel at pattern node other that an edge
// pair (t.a -pred- o1) ∈ G1^d, (t.b -pred- o2) ∈ G2^d leads to.
func supporters(g *graph.Graph, rel map[tuple]bool, t tuple, pred graph.PredID, out bool, other int, g1d, g2d *graph.NodeSet) (sup []tuple) {
	edges := g.In
	if out {
		edges = g.Out
	}
	for _, ea := range edges(t.a) {
		for _, eb := range edges(t.b) {
			u := tuple{ea.To, eb.To, int32(other)}
			if ea.Pred == pred && eb.Pred == pred && g1d.Contains(ea.To) && g2d.Contains(eb.To) && rel[u] {
				sup = append(sup, u)
			}
		}
	}
	return sup
}

// hubChain is a two-level chain (t over u, radius 2) in which every t
// entity reaches the same value through its own auxiliary node: over
// the whole graph the value leads back to n² auxiliary pairs.
func hubChain(t *testing.T, n int) streamCase {
	t.Helper()
	set, err := keys.ParseString(`
key KU for u {
    x -p0-> _w:aux0
    _w:aux0 -q0-> v*
}
key KT for t {
    x -p-> _w:aux
    _w:aux -q-> v*
    x -child-> $y:u
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	us := make([]graph.NodeID, 10)
	for j := range us {
		us[j] = g.MustAddEntity(fmt.Sprintf("u%d", j), "u")
		b := g.MustAddEntity(fmt.Sprintf("b%d", j), "aux0")
		g.MustAddTriple(us[j], "p0", b)
		g.MustAddTriple(b, "q0", g.AddValue(fmt.Sprintf("code%d", j/2)))
	}
	for i := 0; i < n; i++ {
		e := g.MustAddEntity(fmt.Sprintf("e%d", i), "t")
		a := g.MustAddEntity(fmt.Sprintf("a%d", i), "aux")
		g.MustAddTriple(e, "p", a)
		g.MustAddTriple(a, "q", g.AddValue("hub"))
		g.MustAddTriple(e, "child", us[i%len(us)])
	}
	return streamCase{"hub-chain", g, set}
}

// cyclicThroughX is a random graph under a key whose pattern is a cycle
// through x, beside the value key that identifies the cycle's other
// node.
func cyclicThroughX(t *testing.T, seed int64) streamCase {
	t.Helper()
	set, err := keys.ParseString(`
key KU for u {
    x -code-> c*
}
key KC for t {
    x -a-> $y:u
    $y:u -b-> x
}`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	var us []graph.NodeID
	for j := 0; j < 6; j++ {
		u := g.MustAddEntity(fmt.Sprintf("u%d", j), "u")
		g.MustAddTriple(u, "code", g.AddValue(fmt.Sprintf("Code%d", rng.Intn(3))))
		us = append(us, u)
	}
	for i := 0; i < 12; i++ {
		e := g.MustAddEntity(fmt.Sprintf("e%d", i), "t")
		g.MustAddTriple(e, "a", us[rng.Intn(len(us))])
		g.MustAddTriple(us[rng.Intn(len(us))], "b", e)
	}
	return streamCase{fmt.Sprintf("cyclic-%d", seed), g, set}
}

// caseVariantConstant keys t by a constant over values that differ from
// it only in case, and r recursively by its t: under strings.EqualFold
// the constant "UK" admits "uk" and "Uk" too, in the pairing relation as
// in the checks.
func caseVariantConstant(t *testing.T) streamCase {
	t.Helper()
	set, err := keys.ParseString(`
key K for t {
    x -country-> "UK"
    x -name-> n*
}
key KR for r {
    x -title-> n*
    x -of-> $y:t
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	for i, country := range []string{"uk", "UK", "Uk", "fr", "UK"} {
		e := g.MustAddEntity(fmt.Sprintf("t%d", i), "t")
		g.MustAddTriple(e, "country", g.AddValue(country))
		g.MustAddTriple(e, "name", g.AddValue([]string{"A", "a"}[i%2]))
		r := g.MustAddEntity(fmt.Sprintf("r%d", i), "r")
		g.MustAddTriple(r, "of", e)
		g.MustAddTriple(r, "title", g.AddValue([]string{"T", "t"}[i%2]))
	}
	return streamCase{"case-variant-constant", g, set}
}

// pairingCases are the paper fixtures and the testutil configurations
// of streamCases, plus the shapes the top-down construction has to get
// right: a hub, a pattern cycle through x, and a constant that a custom
// ValueEq equates with other values.
func pairingCases(t *testing.T) []streamCase {
	t.Helper()
	cases := streamCases(t)[:8]
	return append(cases, hubChain(t, 120), cyclicThroughX(t, 1), cyclicThroughX(t, 2), caseVariantConstant(t))
}

// TestPairingMatchesDefinition holds ComputePairing to the definition:
// for same-type pairs and their keys, within the d-neighbours and (on
// smaller samples) within other sets, under exact and under custom value
// equality, it pairs exactly the pairs the definition pairs, and its
// relation lies between the definition's — the greatest there is — and
// the part of it that supporters connect to (e1, e2, x).
func TestPairingMatchesDefinition(t *testing.T) {
	for _, tc := range pairingCases(t) {
		for _, valueEq := range []func(a, b string) bool{nil, strings.EqualFold} {
			t.Run(fmt.Sprintf("%s/custom=%v", tc.name, valueEq != nil), func(t *testing.T) {
				m, err := New(tc.g, tc.set, Options{ValueEq: valueEq})
				if err != nil {
					t.Fatal(err)
				}
				pairs := sweep(t, m)
				check := func(pr eqrel.Pair, within string, set1, set2 func(graph.NodeID) *graph.NodeSet) {
					e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
					g1d, g2d := set1(e1), set2(e2)
					for _, ck := range m.KeysFor(tc.g.TypeOf(e1)) {
						if !ck.matchable {
							continue
						}
						want := definitionPairing(m, ck, e1, e2, g1d, g2d)
						got := m.ComputePairing(ck, e1, e2, g1d, g2d)
						x := tuple{e1, e2, int32(ck.x)}
						if got.Paired() != want[x] {
							t.Fatalf("%s (%s,%s) in %s: Paired = %v, the definition says %v",
								ck.Key.Name, tc.g.Label(e1), tc.g.Label(e2), within, got.Paired(), want[x])
						}
						if !got.Paired() {
							continue
						}
						have := make(map[tuple]bool, len(got.tuples))
						for _, u := range got.tuples {
							if have[u] || !want[u] {
								t.Fatalf("%s (%s,%s) in %s: tuple %v twice or not in the definition's relation",
									ck.Key.Name, tc.g.Label(e1), tc.g.Label(e2), within, u)
							}
							have[u] = true
						}
						// Everything the definition keeps connected to x.
						seen := map[tuple]bool{x: true}
						for reach := []tuple{x}; len(reach) > 0; reach = reach[1:] {
							u := reach[0]
							if !have[u] {
								t.Fatalf("%s (%s,%s) in %s: tuple %v is supported from (e1, e2, x) but missing",
									ck.Key.Name, tc.g.Label(e1), tc.g.Label(e2), within, u)
							}
							var next []tuple
							for _, ti := range ck.incident[u.q] {
								tr := ck.triples[ti]
								if tr.subj == int(u.q) {
									next = append(next, supporters(tc.g, want, u, tr.pred, true, tr.obj, g1d, g2d)...)
								}
								if tr.obj == int(u.q) {
									next = append(next, supporters(tc.g, want, u, tr.pred, false, tr.subj, g1d, g2d)...)
								}
							}
							for _, v := range next {
								if !seen[v] {
									seen[v] = true
									reach = append(reach, v)
								}
							}
						}
					}
				}
				// The definition is slow: about 1 500 pairs within the
				// d-neighbours, 25 over the whole graph, and as many with
				// either side cut to one hop, which radius-2 keys notice.
				oneHop := func(e graph.NodeID) *graph.NodeSet { return tc.g.Neighborhood(e, 1) }
				whole := func(graph.NodeID) *graph.NodeSet { return nil }
				for i, pr := range pairs {
					if i%(1+len(pairs)/1500) == 0 {
						check(pr, "the d-neighbours", m.Neighborhood, m.Neighborhood)
					}
					if i%(1+len(pairs)/25) == 0 {
						check(pr, "the whole graph", whole, whole)
						check(pr, "one hop of e1", oneHop, whole)
						check(pr, "one hop of e2", whole, oneHop)
					}
				}
			})
		}
	}
}

// TestPairingNecessary (Proposition 9a): whenever a key identifies a
// pair under an Eq the chase can reach, the key pairs it, and whatever
// a key pairs passes the quick filter — so neither filter ever drops a
// pair the chase steps on. It holds under exact and under custom value
// equality.
func TestPairingNecessary(t *testing.T) {
	cases := pairingCases(t)
	set, err := keys.ParseString(`
key KA for a {
    x -name-> n*
    x -rel-> $y:b
}
key KB for b {
    x -tag-> t*
    _:a -rel-> x
}
key KC for a {
    x -name-> n*
    x -near-> _w:b
    _w:b -tag-> t*
}`)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(20); seed < 30; seed++ {
		cases = append(cases, streamCase{fmt.Sprintf("random-%d", seed), localityRandomGraph(rand.New(rand.NewSource(seed))), set})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, valueEq := range []func(a, b string) bool{nil, strings.EqualFold} {
				t.Run(fmt.Sprintf("custom=%v", valueEq != nil), func(t *testing.T) {
					m, err := New(tc.g, tc.set, Options{ValueEq: valueEq})
					if err != nil {
						t.Fatal(err)
					}
					pairs := sweep(t, m)
					t.Logf("%d pairs, %d chase steps", len(pairs), chaseCheckingPairing(t, m, pairs))
				})
			}
		})
	}
}

// chaseCheckingPairing runs the chase over pairs and fails the test if
// some check identifies a pair its key does not pair, or some key pairs
// a pair the quick filter rejects. It returns the number of steps.
func chaseCheckingPairing(t *testing.T, m *Matcher, pairs []eqrel.Pair) (identified int) {
	t.Helper()
	g := m.G
	eq := eqrel.New(g.NumNodes())
	for changed := true; changed; {
		changed = false
		for _, pr := range pairs {
			e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
			g1d, g2d := m.Neighborhood(e1), m.Neighborhood(e2)
			for _, ck := range m.KeysFor(g.TypeOf(e1)) {
				ok, _ := m.IdentifiedByKey(ck, e1, e2, g1d, g2d, eq)
				paired := m.ComputePairing(ck, e1, e2, g1d, g2d).Paired()
				if ok && !paired {
					t.Fatalf("%s identifies (%s,%s) but does not pair it", ck.Key.Name, g.Label(e1), g.Label(e2))
				}
				if paired && !m.QuickPaired(ck, e1, e2) {
					t.Fatalf("%s pairs (%s,%s) but the quick filter rejects it", ck.Key.Name, g.Label(e1), g.Label(e2))
				}
				if ok && !eq.Same(pr.A, pr.B) {
					eq.Union(pr.A, pr.B)
					identified++
					changed = true
				}
			}
		}
	}
	return identified
}
