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

// layersAndLoops is a random graph under a key whose pattern has a
// triple inside one BFS layer ($y and v, both one hop from x) and
// self-loops at x and at $y, beside the value key that identifies $y.
// Tags differ in case, so EqualFold pairs more than exact equality.
func layersAndLoops(t *testing.T, seed int64) streamCase {
	t.Helper()
	set, err := keys.ParseString(`
key KU for u {
    x -code-> c*
}
key KL for t {
    x -loop-> x
    x -a-> $y:u
    x -tag-> v*
    $y:u -tag-> v*
    $y:u -self-> $y:u
}`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	tag := func() graph.NodeID { return g.AddValue([]string{"tag0", "TAG0", "tag1"}[rng.Intn(3)]) }
	var us, tags []graph.NodeID
	for j := 0; j < 6; j++ {
		u := g.MustAddEntity(fmt.Sprintf("u%d", j), "u")
		g.MustAddTriple(u, "code", g.AddValue(fmt.Sprintf("Code%d", rng.Intn(3))))
		tags = append(tags, tag())
		g.MustAddTriple(u, "tag", tags[j])
		if rng.Intn(3) > 0 {
			g.MustAddTriple(u, "self", u)
		}
		us = append(us, u)
	}
	for i := 0; i < 16; i++ {
		e := g.MustAddEntity(fmt.Sprintf("e%d", i), "t")
		j := rng.Intn(len(us))
		g.MustAddTriple(e, "a", us[j])
		if rng.Intn(4) > 0 {
			g.MustAddTriple(e, "tag", tags[j])
		} else {
			g.MustAddTriple(e, "tag", tag())
		}
		if rng.Intn(3) > 0 {
			g.MustAddTriple(e, "loop", e)
		}
	}
	return streamCase{fmt.Sprintf("layers-and-loops-%d", seed), g, set}
}

// pairingCases are the paper fixtures and the testutil configurations
// of streamCases, plus the shapes the layered construction has to get
// right: a hub, a pattern cycle through x, a constant that a custom
// ValueEq equates with other values, and a triple inside one layer
// beside self-loops.
func pairingCases(t *testing.T) []streamCase {
	t.Helper()
	cases := streamCases(t)[:8]
	return append(cases, hubChain(t, 120), cyclicThroughX(t, 1), cyclicThroughX(t, 2), caseVariantConstant(t),
		layersAndLoops(t, 1), layersAndLoops(t, 2))
}

// pairingMismatch compares ComputePairing's relation of ck at (e1, e2)
// with the definition's over (g1d, g2d), nil meaning the whole graph:
// it describes the first difference, or returns "" when the two are
// equal — the same tuples, each once, and none at all when (e1, e2, x)
// is not paired.
func pairingMismatch(m *Matcher, ck *CompiledKey, e1, e2 graph.NodeID, g1d, g2d *graph.NodeSet) string {
	want := definitionPairing(m, ck, e1, e2, g1d, g2d)
	got := m.ComputePairing(ck, e1, e2)
	if x := (tuple{e1, e2, int32(ck.x)}); got.Paired() != want[x] {
		return fmt.Sprintf("Paired = %v, the definition says %v", got.Paired(), want[x])
	}
	have := make(map[tuple]bool)
	if got.Paired() {
		for _, u := range got.tuples {
			if have[u] || !want[u] {
				return fmt.Sprintf("tuple %v twice or not in the definition's relation", u)
			}
			have[u] = true
		}
	}
	for u := range want {
		if !have[u] {
			return fmt.Sprintf("tuple %v of the definition's relation is missing", u)
		}
	}
	return ""
}

// TestPairingMatchesDefinition holds ComputePairing to the definition:
// for same-type pairs and their keys, under exact and under custom
// value equality, its relation equals the definition's both within the
// d-neighbours and over the whole graph.
func TestPairingMatchesDefinition(t *testing.T) {
	for _, tc := range pairingCases(t) {
		for _, valueEq := range []func(a, b string) bool{nil, strings.EqualFold} {
			t.Run(fmt.Sprintf("%s/custom=%v", tc.name, valueEq != nil), func(t *testing.T) {
				m, err := New(tc.g, tc.set, Options{ValueEq: valueEq})
				if err != nil {
					t.Fatal(err)
				}
				pairs := sweep(t, m)
				check := func(pr eqrel.Pair, within string, g1d, g2d *graph.NodeSet) {
					e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
					for _, ck := range m.KeysFor(tc.g.TypeOf(e1)) {
						if !ck.matchable {
							continue
						}
						if msg := pairingMismatch(m, ck, e1, e2, g1d, g2d); msg != "" {
							t.Fatalf("%s (%s,%s) in %s: %s", ck.Key.Name, tc.g.Label(e1), tc.g.Label(e2), within, msg)
						}
					}
				}
				// The definition is slow: about 1 500 pairs within the
				// d-neighbours, 25 over the whole graph.
				for i, pr := range pairs {
					if i%(1+len(pairs)/1500) == 0 {
						check(pr, "the d-neighbours", m.Neighborhood(graph.NodeID(pr.A)), m.Neighborhood(graph.NodeID(pr.B)))
					}
					if i%(1+len(pairs)/25) == 0 {
						check(pr, "the whole graph", nil, nil)
					}
				}
			})
		}
	}
}

// FuzzPairingMatchesDefinition holds ComputePairing to the definition
// over the whole graph on small arbitrary graphs and key sets, with
// randomJoinCase's 64 seeded cases — hops in both directions, cycles,
// constants, wildcards — as corpus: for every same-type pair and key,
// under exact and under EqualFold equality, the two relations are
// equal.
//
// CI runs this as a fuzz smoke leg beside the candidate join's.
func FuzzPairingMatchesDefinition(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		g, ks := randomJoinCase(seed)
		f.Add(g, ks)
	}
	f.Fuzz(func(t *testing.T, graphText, keysText string) {
		g, err := parseShapeGraph(graphText)
		if err != nil {
			t.Skip(err)
		}
		if g.NumNodes() > 64 {
			t.Skip("graph too large for the definition")
		}
		set, err := keys.ParseString(keysText)
		if err != nil {
			t.Skip(err)
		}
		for _, valueEq := range []func(a, b string) bool{nil, strings.EqualFold} {
			m, err := New(g, set, Options{ValueEq: valueEq})
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range sweep(t, m) {
				e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
				for _, ck := range m.KeysFor(g.TypeOf(e1)) {
					if !ck.matchable {
						continue
					}
					if msg := pairingMismatch(m, ck, e1, e2, nil, nil); msg != "" {
						t.Fatalf("%s (%s,%s), custom=%v: %s", ck.Key.Name, g.Label(e1), g.Label(e2), valueEq != nil, msg)
					}
				}
			}
		}
	})
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
			for _, ck := range m.KeysFor(g.TypeOf(e1)) {
				ok, _ := m.IdentifiedByKey(ck, e1, e2, m.Neighborhood(e1), m.Neighborhood(e2), eq)
				paired := m.ComputePairing(ck, e1, e2).Paired()
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
