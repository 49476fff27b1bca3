package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
)

func pairsOf(t *testing.T, g *graph.Graph, ids ...[2]string) map[eqrel.Pair]bool {
	t.Helper()
	out := make(map[eqrel.Pair]bool)
	for _, p := range ids {
		out[eqrel.MakePair(int32(fixtures.Node(g, p[0])), int32(fixtures.Node(g, p[1])))] = true
	}
	return out
}

func assertPairs(t *testing.T, g *graph.Graph, got []eqrel.Pair, want map[eqrel.Pair]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d pairs %v, want %d", len(got), describe(g, got), len(want))
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("unexpected pair (%s, %s)", g.Label(graph.NodeID(p.A)), g.Label(graph.NodeID(p.B)))
		}
	}
}

func describe(g *graph.Graph, ps []eqrel.Pair) []string {
	var out []string
	for _, p := range ps {
		out = append(out, fmt.Sprintf("(%s,%s)", g.Label(graph.NodeID(p.A)), g.Label(graph.NodeID(p.B))))
	}
	return out
}

// TestMusicChase reproduces Example 7 on G1/Σ1.
func TestMusicChase(t *testing.T) {
	g := fixtures.MusicGraph()
	res, err := Run(g, fixtures.MusicKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertPairs(t, g, res.Pairs, pairsOf(t, g,
		[2]string{"alb1", "alb2"}, [2]string{"art1", "art2"}))
	// Q2 must fire before Q3 can (entity dependency).
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(res.Steps))
	}
	if res.Steps[0].Key != "Q2" {
		t.Errorf("first step by %s, want Q2", res.Steps[0].Key)
	}
	if res.Steps[1].Key != "Q3" {
		t.Errorf("second step by %s, want Q3", res.Steps[1].Key)
	}
	if len(res.Steps[1].Requires) != 1 {
		t.Errorf("Q3 step requires %v, want the album pair", res.Steps[1].Requires)
	}
}

// TestCompanyChase reproduces Example 7 on G2/Σ2.
func TestCompanyChase(t *testing.T) {
	g := fixtures.CompanyGraph()
	res, err := Run(g, fixtures.CompanyKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertPairs(t, g, res.Pairs, pairsOf(t, g,
		[2]string{"com1", "com2"}, [2]string{"com4", "com5"}))
}

// TestAddressChase checks the constant-conditioned key Q6.
func TestAddressChase(t *testing.T) {
	g := fixtures.AddressGraph()
	res, err := Run(g, fixtures.AddressKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertPairs(t, g, res.Pairs, pairsOf(t, g, [2]string{"st1", "st2"}))
}

// TestChurchRosser (Proposition 1): the chase result is independent of
// the order keys are applied in.
func TestChurchRosser(t *testing.T) {
	g := fixtures.MusicGraph()
	base, err := Run(g, fixtures.MusicKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		res, err := Run(g, fixtures.MusicKeys(), Options{
			Order: func(ps []eqrel.Pair) {
				rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !samePairs(res.Pairs, base.Pairs) {
			t.Fatalf("seed %d: chase result differs: %v vs %v",
				seed, describe(g, res.Pairs), describe(g, base.Pairs))
		}
	}
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

// TestPairingChaseAgrees: filtering L by pairing does not change the
// fixpoint (pairing is a necessary condition).
func TestPairingChaseAgrees(t *testing.T) {
	for _, fx := range []struct {
		name string
		g    *graph.Graph
		set  *keys.Set
	}{
		{"music", fixtures.MusicGraph(), fixtures.MusicKeys()},
		{"company", fixtures.CompanyGraph(), fixtures.CompanyKeys()},
	} {
		t.Run(fx.name, func(t *testing.T) {
			a, err := Run(fx.g, fx.set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(fx.g, fx.set, Options{UsePairing: true})
			if err != nil {
				t.Fatal(err)
			}
			if !samePairs(a.Pairs, b.Pairs) {
				t.Fatalf("paired chase differs")
			}
			if b.Candidates > a.Candidates {
				t.Errorf("pairing grew L: %d > %d", b.Candidates, a.Candidates)
			}
		})
	}
}

// TestTransitivity: three duplicate albums collapse into one class and
// all three pairs are reported.
func TestTransitivity(t *testing.T) {
	g := graph.New()
	name := g.AddValue("N")
	year := g.AddValue("2000")
	for i := 1; i <= 3; i++ {
		a := g.MustAddEntity(fmt.Sprintf("a%d", i), "album")
		g.MustAddTriple(a, "name_of", name)
		g.MustAddTriple(a, "release_year", year)
	}
	set, err := keys.ParseString(`
key Q2 for album {
    x -name_of-> name*
    x -release_year-> year*
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 3 {
		t.Fatalf("pairs = %v, want all 3 pairs of the class", describe(g, res.Pairs))
	}
}

// TestDependencyChainCascade builds a chain t0 <- t1 <- ... <- t4 where
// identifying level i+1 requires level i, exercising deep recursion.
func TestDependencyChainCascade(t *testing.T) {
	const depth = 5
	g := graph.New()
	var dsl string
	dsl = `
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
	// Two parallel chains of entities, duplicates level by level. The
	// level-0 entities share a name value; each level-i entity points to
	// its chain's level-(i-1) entity and has a per-level name.
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
	res, err := Run(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != depth {
		t.Fatalf("pairs = %d, want %d (one per level)", len(res.Pairs), depth)
	}
	// The chase must have ordered steps bottom-up.
	if len(res.Steps) != depth {
		t.Fatalf("steps = %d, want %d", len(res.Steps), depth)
	}
	for i, st := range res.Steps {
		wantKey := fmt.Sprintf("K%d", i)
		if st.Key != wantKey {
			t.Errorf("step %d by %s, want %s (bottom-up cascade)", i, st.Key, wantKey)
		}
	}
}

// TestProofExtractVerify: proofs extracted from the chase verify, and
// tampered proofs fail verification.
func TestProofExtractVerify(t *testing.T) {
	g := fixtures.MusicGraph()
	set := fixtures.MusicKeys()
	res, err := Run(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	art1, art2 := fixtures.Node(g, "art1"), fixtures.Node(g, "art2")
	proof, err := res.Prove(art1, art2)
	if err != nil {
		t.Fatal(err)
	}
	// The proof for the artist pair must include the album step.
	if len(proof.Steps) != 2 {
		t.Fatalf("proof steps = %d, want 2 (album pair then artist pair)", len(proof.Steps))
	}
	reg := obs.NewRegistry()
	if err := proof.Verify(g, set, match.Options{Obs: match.NewObs(reg)}); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	// Replaying the steps builds no d-neighbor: a check searches G.
	if built := reg.Snapshot().Counters["match.neighborhoods_built"]; built != 0 {
		t.Errorf("verifying %d steps built %d d-neighbors, want none", len(proof.Steps), built)
	}
	// Tamper 1: drop the prerequisite step.
	bad := &Proof{Target: proof.Target, Steps: proof.Steps[1:]}
	if err := bad.Verify(g, set, match.Options{}); err == nil {
		t.Error("proof missing prerequisite verified")
	}
	// Tamper 2: claim the wrong key.
	bad2 := &Proof{Target: proof.Target, Steps: []Step{
		{Pair: proof.Steps[0].Pair, Key: "Q3"},
		proof.Steps[1],
	}}
	if err := bad2.Verify(g, set, match.Options{}); err == nil {
		t.Error("proof with wrong key verified")
	}
	// Tamper 3: unknown key name.
	bad3 := &Proof{Target: proof.Target, Steps: []Step{{Pair: proof.Steps[0].Pair, Key: "QX"}}}
	if err := bad3.Verify(g, set, match.Options{}); err == nil {
		t.Error("proof with unknown key verified")
	}
}

func TestProveUnidentifiedFails(t *testing.T) {
	g := fixtures.MusicGraph()
	res, err := Run(g, fixtures.MusicKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Prove(fixtures.Node(g, "alb1"), fixtures.Node(g, "alb3")); err == nil {
		t.Error("proof produced for unidentified pair")
	}
	// Reflexive pairs have the empty proof.
	p, err := res.Prove(fixtures.Node(g, "alb1"), fixtures.Node(g, "alb1"))
	if err != nil || len(p.Steps) != 0 {
		t.Errorf("reflexive proof: %v, steps=%d", err, len(p.Steps))
	}
	if err := p.Verify(g, fixtures.MusicKeys(), match.Options{}); err != nil {
		t.Errorf("empty proof rejected: %v", err)
	}
}

// TestProofViaTransitivity: prove a pair that entered Eq only through
// transitive closure, not via a direct chase step.
func TestProofViaTransitivity(t *testing.T) {
	g := graph.New()
	name := g.AddValue("N")
	year := g.AddValue("2000")
	var es []graph.NodeID
	for i := 1; i <= 3; i++ {
		a := g.MustAddEntity(fmt.Sprintf("a%d", i), "album")
		g.MustAddTriple(a, "name_of", name)
		g.MustAddTriple(a, "release_year", year)
		es = append(es, a)
	}
	set, err := keys.ParseString(`
key Q2 for album {
    x -name_of-> name*
    x -release_year-> year*
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two direct steps identify the class; the third pair is transitive.
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(res.Steps))
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			proof, err := res.Prove(es[i], es[j])
			if err != nil {
				t.Fatalf("prove (%d,%d): %v", i, j, err)
			}
			if err := proof.Verify(g, set, match.Options{}); err != nil {
				t.Fatalf("verify (%d,%d): %v", i, j, err)
			}
		}
	}
}

// TestViolations: key satisfaction checking (G ⊨ Q) reports exactly the
// violating pairs of the fixtures.
func TestViolations(t *testing.T) {
	g := fixtures.MusicGraph()
	vs, err := Violations(g, fixtures.MusicKeys(), match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Under Eq0 only value-based keys can fire: Q2 on (alb1, alb2).
	if len(vs) != 1 || vs[0].Key != "Q2" {
		t.Fatalf("violations = %+v, want one Q2 violation", vs)
	}
	clean := graph.New()
	a := clean.MustAddEntity("a", "album")
	clean.MustAddTriple(a, "name_of", clean.AddValue("solo"))
	vs, err = Violations(clean, fixtures.MusicKeys(), match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("clean graph reported violations: %+v", vs)
	}
}

// TestEmptyGraph: chasing an empty graph is a no-op.
func TestEmptyGraph(t *testing.T) {
	g := graph.New()
	res, err := Run(g, fixtures.MusicKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 || len(res.Steps) != 0 {
		t.Error("empty graph produced results")
	}
}

// TestRandomizedOrderInvariance is a property test over random graphs:
// for each random graph, two random chase orders agree (Church-Rosser),
// and the pairing-filtered chase agrees with both.
func TestRandomizedOrderInvariance(t *testing.T) {
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
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng)
		base, err := Run(g, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		shuf, err := Run(g, set, Options{Order: func(ps []eqrel.Pair) {
			rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !samePairs(base.Pairs, shuf.Pairs) {
			t.Fatalf("seed %d: order changed the fixpoint", seed)
		}
		paired, err := Run(g, set, Options{UsePairing: true})
		if err != nil {
			t.Fatal(err)
		}
		if !samePairs(base.Pairs, paired.Pairs) {
			t.Fatalf("seed %d: pairing-filtered chase disagrees", seed)
		}
	}
}

// randomBipartite builds a small random graph over types a and b with
// shared names/tags so that duplicates occur.
func randomBipartite(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	nA, nB := 6+rng.Intn(4), 5+rng.Intn(4)
	var bs []graph.NodeID
	for i := 0; i < nB; i++ {
		b := g.MustAddEntity(fmt.Sprintf("b%d", i), "b")
		g.MustAddTriple(b, "tag", g.AddValue(fmt.Sprintf("tag%d", rng.Intn(3))))
		bs = append(bs, b)
	}
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
