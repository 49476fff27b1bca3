package emvc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

func run(t *testing.T, g *graph.Graph, set *keys.Set, cfg Config) *Result {
	t.Helper()
	res, err := Run(g, set, cfg)
	if err != nil {
		t.Fatalf("Run(%v): %v", cfg.Variant, err)
	}
	return res
}

func groundTruth(t *testing.T, g *graph.Graph, set *keys.Set) []eqrel.Pair {
	t.Helper()
	res, err := chase.Run(g, set, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Pairs
}

func samePairs(a, b []eqrel.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestVariantsMatchChaseOnFixtures: both variants at several worker
// counts reproduce the sequential chase on the paper fixtures: the
// message protocol alone reaches the fixpoint.
func TestVariantsMatchChaseOnFixtures(t *testing.T) {
	fixturesList := []struct {
		name string
		g    *graph.Graph
		set  *keys.Set
	}{
		{"music", fixtures.MusicGraph(), fixtures.MusicKeys()},
		{"company", fixtures.CompanyGraph(), fixtures.CompanyKeys()},
		{"address", fixtures.AddressGraph(), fixtures.AddressKeys()},
	}
	for _, fx := range fixturesList {
		want := groundTruth(t, fx.g, fx.set)
		for _, v := range []Variant{Base, Opt} {
			for _, p := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%v/p%d", fx.name, v, p), func(t *testing.T) {
					res := run(t, fx.g, fx.set, Config{P: p, Variant: v})
					if !samePairs(res.Pairs, want) {
						t.Fatalf("pairs = %v, want %v", res.Pairs, want)
					}
				})
			}
		}
	}
}

// TestExample10MessageFlow mirrors Example 10: the music fixture's
// (alb1, alb2) is identified by Q2, which then triggers an increment at
// the dependent (art1, art2).
func TestExample10MessageFlow(t *testing.T) {
	g := fixtures.MusicGraph()
	res := run(t, g, fixtures.MusicKeys(), Config{P: 2, Variant: Base})
	if res.Stats.Identified != 2 {
		t.Errorf("direct identifications = %d, want 2", res.Stats.Identified)
	}
	if res.Stats.Increments == 0 {
		t.Error("no increment messages: dependency propagation did not fire")
	}
	if res.Stats.Messages == 0 {
		t.Error("no messages processed")
	}
}

// TestProductGraphShape: Gp contains the candidate pair nodes, is
// restricted to paired nodes, and stays far below |G|^2.
func TestProductGraphShape(t *testing.T) {
	g := fixtures.MusicGraph()
	m, err := match.New(g, fixtures.MusicKeys(), match.Options{FullSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	prod, cands := buildProduct(m, slices.Collect(m.CandidateStream()), 2)
	if len(cands) == 0 {
		t.Fatal("no paired candidates")
	}
	for _, pr := range cands {
		if _, ok := prod.ID(opair{A: graph.NodeID(pr.A), B: graph.NodeID(pr.B)}); !ok {
			t.Errorf("candidate pair (%d,%d) missing from Vp", pr.A, pr.B)
		}
	}
	n2 := g.NumNodes() * g.NumNodes()
	if prod.NumNodes() >= n2/2 {
		t.Errorf("|Vp| = %d is not much smaller than |G|^2 = %d", prod.NumNodes(), n2)
	}
}

// TestTourProperties: for every paper key, the tour starts and ends at
// x, visits every pattern node, has at most 2|Q| steps, and consecutive
// steps are chained.
func TestTourProperties(t *testing.T) {
	g := fixtures.MusicGraph()
	// Compile against a graph that has all predicates; use each fixture
	// set against its graph.
	check := func(t *testing.T, g *graph.Graph, set *keys.Set) {
		m, err := match.New(g, set, match.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tid := range m.KeyedTypes() {
			for _, ck := range m.KeysFor(tid) {
				steps := buildTour(ck)
				if len(steps) > 2*ck.TripleCount() {
					t.Errorf("%s: tour has %d steps > 2|Q| = %d",
						ck.Key.Name, len(steps), 2*ck.TripleCount())
				}
				if len(steps) == 0 {
					continue
				}
				if steps[0].From != ck.XIndex() {
					t.Errorf("%s: tour does not start at x", ck.Key.Name)
				}
				if steps[len(steps)-1].To != ck.XIndex() {
					t.Errorf("%s: tour does not end at x", ck.Key.Name)
				}
				visited := map[int]bool{ck.XIndex(): true}
				for i, s := range steps {
					if i > 0 && steps[i-1].To != s.From {
						t.Errorf("%s: steps %d and %d not chained", ck.Key.Name, i-1, i)
					}
					visited[s.From] = true
					visited[s.To] = true
				}
				if len(visited) != ck.PatternNodeCount() {
					t.Errorf("%s: tour visits %d of %d nodes", ck.Key.Name, len(visited), ck.PatternNodeCount())
				}
			}
		}
	}
	check(t, g, fixtures.MusicKeys())
	check(t, fixtures.CompanyGraph(), fixtures.CompanyKeys())
	check(t, fixtures.AddressGraph(), fixtures.AddressKeys())
}

// TestBoundedMessagesStillCorrect: tiny budgets force in-place
// exploration and must not lose identifications.
func TestBoundedMessagesStillCorrect(t *testing.T) {
	g := fixtures.MusicGraph()
	want := groundTruth(t, g, fixtures.MusicKeys())
	for _, k := range []int{1, 2, 4, 64} {
		res := run(t, g, fixtures.MusicKeys(), Config{P: 4, Variant: Opt, K: k})
		if !samePairs(res.Pairs, want) {
			t.Fatalf("K=%d: pairs differ", k)
		}
	}
	// A K of 1 must do most exploration in place.
	res := run(t, g, fixtures.MusicKeys(), Config{P: 4, Variant: Opt, K: 1})
	if res.Stats.LocalSteps == 0 {
		t.Error("K=1 produced no local exploration steps")
	}
}

// TestOptFewerMessages: bounding delivers no more messages than
// unbounded forking on the same input: the company fixture at K = 2,
// and every golden workload at the default K.
func TestOptFewerMessages(t *testing.T) {
	check := func(name string, g *graph.Graph, set *keys.Set, k int) {
		base := run(t, g, set, Config{P: 4, Variant: Base})
		opt := run(t, g, set, Config{P: 4, Variant: Opt, K: k})
		if opt.Stats.Messages > base.Stats.Messages {
			t.Errorf("%s K=%d: Opt delivered more messages (%d) than Base (%d)",
				name, k, opt.Stats.Messages, base.Stats.Messages)
		}
	}
	check("company", fixtures.CompanyGraph(), fixtures.CompanyKeys(), 2)
	for _, w := range goldenWorkloads(t) {
		check(w.name, w.g, w.set, 0)
	}
}

// TestDependencyChainCascade: the message protocol resolves dependency
// chains end to end in one run (increments ripple through).
func TestDependencyChainCascade(t *testing.T) {
	for _, depth := range []int{2, 4, 6} {
		g, set := chainFixture(t, depth)
		for _, v := range []Variant{Base, Opt} {
			res := run(t, g, set, Config{P: 3, Variant: v})
			if len(res.Pairs) != depth {
				t.Errorf("depth %d %v: pairs = %d, want %d", depth, v, len(res.Pairs), depth)
			}
		}
	}
}

func chainFixture(t testing.TB, depth int) (*graph.Graph, *keys.Set) {
	t.Helper()
	dsl := `
key K0 for t0 {
    x -name-> n*
}
`
	for lvl := 1; lvl < depth; lvl++ {
		dsl += fmt.Sprintf(`
key K%d for t%d {
    x -name-> n*
    x -child-> $y:t%d
}
`, lvl, lvl, lvl-1)
	}
	set, err := keys.ParseString(dsl)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	for side := 0; side < 2; side++ {
		var prev graph.NodeID
		for lvl := 0; lvl < depth; lvl++ {
			e := g.MustAddEntity(fmt.Sprintf("s%d_l%d", side, lvl), fmt.Sprintf("t%d", lvl))
			g.MustAddTriple(e, "name", g.AddValue(fmt.Sprintf("name-l%d", lvl)))
			if lvl > 0 {
				g.MustAddTriple(e, "child", prev)
			}
			prev = e
		}
	}
	return g, set
}

// TestTransitiveMergeTriggersDependents mirrors the EMMR test: a parent
// pair enabled only by a transitive merge of child classes.
func TestTransitiveMergeTriggersDependents(t *testing.T) {
	set, err := keys.ParseString(`
key KA for u {
    x -a-> a*
}
key KB for u {
    x -b-> b*
}
key KP for p {
    x -name-> n*
    x -child-> $y:u
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	u := make([]graph.NodeID, 5)
	for i := 1; i <= 4; i++ {
		u[i] = g.MustAddEntity(fmt.Sprintf("u%d", i), "u")
	}
	g.MustAddTriple(u[1], "a", g.AddValue("a12"))
	g.MustAddTriple(u[2], "a", g.AddValue("a12"))
	g.MustAddTriple(u[3], "a", g.AddValue("a34"))
	g.MustAddTriple(u[4], "a", g.AddValue("a34"))
	g.MustAddTriple(u[2], "b", g.AddValue("b23"))
	g.MustAddTriple(u[3], "b", g.AddValue("b23"))
	p1 := g.MustAddEntity("p1", "p")
	p2 := g.MustAddEntity("p2", "p")
	g.MustAddTriple(p1, "name", g.AddValue("P"))
	g.MustAddTriple(p2, "name", g.AddValue("P"))
	g.MustAddTriple(p1, "child", u[1])
	g.MustAddTriple(p2, "child", u[4])
	want := groundTruth(t, g, set)
	for _, v := range []Variant{Base, Opt} {
		res := run(t, g, set, Config{P: 4, Variant: v})
		if !samePairs(res.Pairs, want) {
			t.Fatalf("%v: pairs = %v, want %v", v, res.Pairs, want)
		}
	}
}

// TestRandomizedAgainstChase fuzzes both variants and several worker
// counts against the sequential chase.
func TestRandomizedAgainstChase(t *testing.T) {
	set := randomKeys(t)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		want := groundTruth(t, g, set)
		for _, v := range []Variant{Base, Opt} {
			res := run(t, g, set, Config{P: 1 + int(seed)%5, Variant: v})
			if !samePairs(res.Pairs, want) {
				t.Fatalf("seed %d %v: pairs differ\n got %v\nwant %v", seed, v, res.Pairs, want)
			}
		}
	}
}

// randomKeys is the key set over randomGraph's types: a recursive key,
// a value key and a wildcard key.
func randomKeys(t testing.TB) *keys.Set {
	t.Helper()
	set, err := keys.ParseString(`
key KA for a {
    x -name-> n*
    x -rel-> $y:b
}
key KB for b {
    x -tag-> t*
}
key KW for a {
    x -name-> n*
    x -near-> _:b
}`)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func randomGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	nB := 5 + rng.Intn(4)
	var bs []graph.NodeID
	for i := 0; i < nB; i++ {
		b := g.MustAddEntity(fmt.Sprintf("b%d", i), "b")
		g.MustAddTriple(b, "tag", g.AddValue(fmt.Sprintf("tag%d", rng.Intn(3))))
		bs = append(bs, b)
	}
	nA := 6 + rng.Intn(4)
	for i := 0; i < nA; i++ {
		a := g.MustAddEntity(fmt.Sprintf("a%d", i), "a")
		g.MustAddTriple(a, "name", g.AddValue(fmt.Sprintf("name%d", rng.Intn(3))))
		g.MustAddTriple(a, "rel", bs[rng.Intn(len(bs))])
		if rng.Intn(2) == 0 {
			g.MustAddTriple(a, "near", bs[rng.Intn(len(bs))])
		}
	}
	return g
}

// TestSelfLoopOnlyKey: a key whose single triple is a self-loop on x
// has an empty tour; seeding must verify it directly.
func TestSelfLoopOnlyKey(t *testing.T) {
	set, err := keys.ParseString(`
key K for t {
    x -self-> x
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	e1 := g.MustAddEntity("e1", "t")
	e2 := g.MustAddEntity("e2", "t")
	e3 := g.MustAddEntity("e3", "t")
	g.MustAddTriple(e1, "self", e1)
	g.MustAddTriple(e2, "self", e2)
	g.MustAddTriple(e3, "other", e3)
	want := groundTruth(t, g, set)
	res := run(t, g, set, Config{P: 2, Variant: Base})
	if !samePairs(res.Pairs, want) {
		t.Fatalf("pairs = %v, want %v", res.Pairs, want)
	}
}

// TestEmptyGraph: no candidates, no messages, clean return.
func TestEmptyGraph(t *testing.T) {
	res := run(t, graph.New(), fixtures.MusicKeys(), Config{P: 4, Variant: Opt})
	if len(res.Pairs) != 0 || res.Stats.Messages != 0 {
		t.Errorf("empty graph: %+v", res.Stats)
	}
}

// TestVariantString keeps the paper names.
func TestVariantString(t *testing.T) {
	if Base.String() != "EMVC" || Opt.String() != "EMOptVC" {
		t.Error("variant names drifted")
	}
	if Variant(7).String() != "Variant(7)" {
		t.Error("unknown variant formatting")
	}
}

// TestReseedChecksSelfLoops: an increment message is seeded under the
// same conditions as an initial one. K2 asks for a self-loop on x that
// only e1 has; K1 pairs (e1, e2) and makes it depend on (u1, u2), so
// identifying (u1, u2) re-seeds K2 at (e1, e2) — where a seed that
// skipped the self-loop check would complete K2's tour and identify the
// pair.
func TestReseedChecksSelfLoops(t *testing.T) {
	set, err := keys.ParseString(`
key KU for u {
    x -code-> c*
}
key K1 for t {
    x -name-> n*
    x -ref-> $y:u
    x -other-> $z:w
}
key K2 for t {
    x -self-> x
    x -ref-> $y:u
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	name, code := g.AddValue("name"), g.AddValue("code")
	var es [2]graph.NodeID
	for i := range es {
		e := g.MustAddEntity(fmt.Sprintf("e%d", i+1), "t")
		u := g.MustAddEntity(fmt.Sprintf("u%d", i+1), "u")
		w := g.MustAddEntity(fmt.Sprintf("w%d", i+1), "w")
		g.MustAddTriple(e, "name", name)
		g.MustAddTriple(e, "ref", u)
		g.MustAddTriple(e, "other", w)
		g.MustAddTriple(u, "code", code)
		es[i] = e
	}
	g.MustAddTriple(es[0], "self", es[0])
	want := groundTruth(t, g, set)
	if len(want) != 1 {
		t.Fatalf("chase identifies %v, want (u1, u2) alone", want)
	}
	for _, v := range []Variant{Base, Opt} {
		if res := run(t, g, set, Config{P: 2, Variant: v}); !samePairs(res.Pairs, want) {
			t.Errorf("%v: pairs = %v, want %v", v, res.Pairs, want)
		}
	}
}

// siblingForks is the sibling-forks shape of package match's tests: at
// (e1, e2) the wildcard _z of K has two bindings, in adjacency order
// (b1, c1) — a product-graph node only because KB pairs it, under which
// no q-value is shared — and then (b2, c2), under which K identifies
// the pair.
func siblingForks(t testing.TB) (*graph.Graph, *keys.Set) {
	t.Helper()
	set, err := keys.ParseString(`
key K for A {
    x -r-> _z:B
    _z:B -q-> v*
}
key KB for B {
    x -tag-> t*
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	for _, tr := range [][4]string{
		{"e1", "b1", "1", "t1"}, {"e1", "b2", "3", "t2"},
		{"e2", "c1", "2", "t1"}, {"e2", "c2", "3", "t2"},
		{"e3", "b3", "4", "t3"},
	} {
		e, b := g.MustAddEntity(tr[0], "A"), g.MustAddEntity(tr[1], "B")
		g.MustAddTriple(e, "r", b)
		g.MustAddTriple(b, "q", g.AddValue(tr[2]))
		g.MustAddTriple(b, "tag", g.AddValue(tr[3]))
	}
	return g, set
}

// TestSiblingForksBindApart: the forks of one message each bind the
// pattern node they reach on a slot vector of their own. The fork to
// (b1, c1) arrives first and binds _z; a fork to (b2, c2) that shared
// its slots with it would find _z bound elsewhere and die, and (e1, e2)
// would go unidentified. K = 1 explores both forks in place, on the
// worker's stack; K = 4 sends both through the outbox.
func TestSiblingForksBindApart(t *testing.T) {
	g, set := siblingForks(t)
	want := groundTruth(t, g, set)
	if len(want) != 3 {
		t.Fatalf("chase identifies %v, want (b1, c1), (b2, c2) and (e1, e2)", want)
	}
	for _, v := range []Variant{Base, Opt} {
		for _, k := range []int{1, 4} {
			for _, p := range []int{1, 2} {
				res := run(t, g, set, Config{P: p, Variant: v, K: k})
				if !samePairs(res.Pairs, want) {
					t.Errorf("%v K=%d p=%d: pairs = %v, want %v", v, k, p, res.Pairs, want)
				}
				if inPlace := v == Opt && k == 1; (res.Stats.LocalSteps > 0) != inPlace {
					t.Errorf("%v K=%d p=%d: %d local steps; want some exactly when forks explore in place", v, k, p, res.Stats.LocalSteps)
				}
			}
		}
	}
}
