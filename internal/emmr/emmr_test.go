package emmr

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

func run(t *testing.T, g *graph.Graph, set *keys.Set, cfg Config) *Result {
	t.Helper()
	res, err := Run(g, set, cfg)
	if err != nil {
		t.Fatalf("Run(%v): %v", cfg.Variant, err)
	}
	return res
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

// groundTruth computes the sequential chase for comparison.
func groundTruth(t *testing.T, g *graph.Graph, set *keys.Set) []eqrel.Pair {
	t.Helper()
	res, err := chase.Run(g, set, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Pairs
}

// TestAllVariantsMatchChaseOnFixtures: every variant at several worker
// counts reproduces the sequential chase on all three paper fixtures.
func TestAllVariantsMatchChaseOnFixtures(t *testing.T) {
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
		for _, v := range []Variant{Base, VF2, Opt} {
			for _, p := range []int{1, 2, 4} {
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

// TestMusicRounds mirrors Example 8: the music chase takes two
// productive rounds plus one empty round to detect the fixpoint.
func TestMusicRounds(t *testing.T) {
	g := fixtures.MusicGraph()
	res := run(t, g, fixtures.MusicKeys(), Config{P: 2, Variant: Base})
	if res.Stats.Rounds != 3 {
		t.Errorf("rounds = %d, want 3 (two productive, one terminal)", res.Stats.Rounds)
	}
	if res.Stats.IdentifiedDirect != 2 {
		t.Errorf("direct identifications = %d, want 2", res.Stats.IdentifiedDirect)
	}
	if len(res.Pairs) != 2 {
		t.Errorf("pairs = %d, want 2", len(res.Pairs))
	}
}

// TestOptReducesWork: on the music fixture the Opt variant shrinks L
// (alb3/art3 pairs may stay, but the unfiltered count is an upper
// bound) and skips dependency-gated re-checks.
func TestOptReducesWork(t *testing.T) {
	g := fixtures.MusicGraph()
	base := run(t, g, fixtures.MusicKeys(), Config{P: 2, Variant: Base})
	opt := run(t, g, fixtures.MusicKeys(), Config{P: 2, Variant: Opt})
	if opt.Stats.Candidates > opt.Stats.CandidatesUnfiltered {
		t.Error("pairing filter grew L")
	}
	if opt.Stats.Checks > base.Stats.Checks {
		t.Errorf("Opt performed more checks (%d) than Base (%d)",
			opt.Stats.Checks, base.Stats.Checks)
	}
	if opt.Stats.ReducedNeighborhoodNodes > opt.Stats.NeighborhoodNodes {
		t.Error("reduced neighborhoods grew")
	}
}

// TestVF2DoesMoreWork: the enumerate-all baseline must never take fewer
// search steps than the guided search with early termination.
func TestVF2DoesMoreWork(t *testing.T) {
	g := fixtures.MusicGraph()
	base := run(t, g, fixtures.MusicKeys(), Config{P: 1, Variant: Base})
	vf2 := run(t, g, fixtures.MusicKeys(), Config{P: 1, Variant: VF2})
	if vf2.Stats.IsoSteps < base.Stats.IsoSteps {
		t.Errorf("VF2 steps (%d) < guided steps (%d)", vf2.Stats.IsoSteps, base.Stats.IsoSteps)
	}
}

// TestDeterministicAcrossP: the result and every counted statistic
// are identical for any worker count (the BSP snapshot semantics make
// rounds deterministic, and verdicts commit in candidate order).
func TestDeterministicAcrossP(t *testing.T) {
	g := fixtures.CompanyGraph()
	set := fixtures.CompanyKeys()
	for _, v := range []Variant{Base, VF2, Opt} {
		ref := run(t, g, set, Config{P: 1, Variant: v})
		for _, p := range []int{1, 2, 3, 8, 16} {
			res := run(t, g, set, Config{P: p, Variant: v})
			if !samePairs(res.Pairs, ref.Pairs) {
				t.Fatalf("%v p=%d changed the result", v, p)
			}
			if res.Stats != ref.Stats {
				t.Errorf("%v p=%d changed the counts:\n got %+v\nwant %+v", v, p, res.Stats, ref.Stats)
			}
		}
	}
}

// TestCostModel: the cluster cost is charged by arithmetic over the
// counted rounds and key/value pairs.
func TestCostModel(t *testing.T) {
	g := fixtures.MusicGraph()
	cost := CostModel{RoundLatency: 10 * time.Millisecond, PerKV: time.Millisecond}
	res := run(t, g, fixtures.MusicKeys(), Config{P: 2, Variant: Base, Cost: cost})
	st := res.Stats
	if want := time.Duration(st.Rounds)*cost.RoundLatency + time.Duration(st.KVs)*cost.PerKV; st.Charged != want {
		t.Errorf("charged %v, want %v (%d rounds, %d KVs)", st.Charged, want, st.Rounds, st.KVs)
	}
	if st.KVs <= st.Checks {
		t.Errorf("KVs = %d, want one per check (%d) plus one per identification", st.KVs, st.Checks)
	}
}

// TestNoCostByDefault: the zero cost model charges nothing.
func TestNoCostByDefault(t *testing.T) {
	res := run(t, fixtures.MusicGraph(), fixtures.MusicKeys(), Config{P: 2, Variant: Base})
	if res.Stats.Charged != 0 {
		t.Errorf("no cost model charged %v", res.Stats.Charged)
	}
	if res.Stats.KVs == 0 {
		t.Error("no key/value pairs counted; the zero charge proves nothing")
	}
}

// TestDependencyChainRounds: a dependency chain of length c needs c
// productive rounds — the Exp-3 claim that rounds grow with c.
func TestDependencyChainRounds(t *testing.T) {
	for _, depth := range []int{2, 4, 6} {
		g, set := chainFixture(t, depth)
		res := run(t, g, set, Config{P: 2, Variant: Base})
		// Level k can only be identified in round k+1 (BSP snapshots),
		// and every candidate pair resolves, so the driver stops after
		// exactly depth rounds with no terminal empty round.
		if res.Stats.Rounds != depth {
			t.Errorf("depth %d: rounds = %d, want %d", depth, res.Stats.Rounds, depth)
		}
		if len(res.Pairs) != depth {
			t.Errorf("depth %d: pairs = %d, want %d", depth, len(res.Pairs), depth)
		}
		// Opt agrees and skips work.
		opt := run(t, g, set, Config{P: 2, Variant: Opt})
		if !samePairs(opt.Pairs, res.Pairs) {
			t.Errorf("depth %d: Opt differs", depth)
		}
		if depth >= 4 && opt.Stats.SkippedByDependency == 0 {
			t.Errorf("depth %d: dependency gating skipped nothing", depth)
		}
	}
}

// chainFixture builds the level-chain graph of the chase tests: two
// duplicate chains of entities over types t0..t(depth-1).
func chainFixture(t *testing.T, depth int) (*graph.Graph, *keys.Set) {
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

// TestTransitiveMergeTriggersDependents: when a union merges two
// existing classes, dependents of all members are re-checked (the
// correctness subtlety the driver's member tracking exists for).
func TestTransitiveMergeTriggersDependents(t *testing.T) {
	// u-pairs (u1,u2) and (u3,u4) are identified by value keys on
	// different attributes; a parent pair (p1,p2) requires its child
	// pair (u2,u3) — which only enters Eq transitively when (u1,u2),
	// (u1,u3) and (u3,u4) all merge into one class.
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
	// (u1,u2) share a; (u3,u4) share a (different value); (u2,u3) share b.
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
	// (p1,p2) must be identified: u1 ≡ u4 transitively.
	found := false
	for _, pr := range want {
		if graph.NodeID(pr.A) == p1 || graph.NodeID(pr.B) == p2 {
			if graph.NodeID(pr.A) == p1 && graph.NodeID(pr.B) == p2 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("fixture broken: chase did not identify (p1, p2)")
	}
	for _, v := range []Variant{Base, Opt} {
		res := run(t, g, set, Config{P: 2, Variant: v})
		if !samePairs(res.Pairs, want) {
			t.Fatalf("%v: pairs = %v, want %v", v, res.Pairs, want)
		}
	}
}

// TestRandomizedAgainstChase fuzzes all variants against the sequential
// chase on random graphs.
func TestRandomizedAgainstChase(t *testing.T) {
	set := randomKeys(t)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		want := groundTruth(t, g, set)
		for _, v := range []Variant{Base, VF2, Opt} {
			res := run(t, g, set, Config{P: 3, Variant: v})
			if !samePairs(res.Pairs, want) {
				t.Fatalf("seed %d %v: pairs differ from chase\n got %v\nwant %v",
					seed, v, res.Pairs, want)
			}
		}
	}
}

// randomKeys is the key set over randomGraph's types: a recursive key
// on a, a value key on b, and a wildcard key on a.
func randomKeys(t *testing.T) *keys.Set {
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

// TestEmptyAndNoMatchInputs: degenerate inputs terminate immediately.
func TestEmptyAndNoMatchInputs(t *testing.T) {
	res := run(t, graph.New(), fixtures.MusicKeys(), Config{P: 4, Variant: Base})
	if len(res.Pairs) != 0 {
		t.Error("empty graph produced pairs")
	}
	// A graph whose entities share nothing.
	g := graph.New()
	a := g.MustAddEntity("a", "album")
	b := g.MustAddEntity("b", "album")
	g.MustAddTriple(a, "name_of", g.AddValue("A"))
	g.MustAddTriple(b, "name_of", g.AddValue("B"))
	res = run(t, g, fixtures.MusicKeys(), Config{P: 4, Variant: Opt})
	if len(res.Pairs) != 0 {
		t.Error("disjoint albums identified")
	}
}

func TestVariantString(t *testing.T) {
	if Base.String() != "EMMR" || VF2.String() != "EMVF2MR" || Opt.String() != "EMOptMR" {
		t.Error("variant names drifted from the paper")
	}
	if Variant(9).String() != "Variant(9)" {
		t.Error("unknown variant formatting")
	}
}
