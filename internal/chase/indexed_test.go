package chase

import (
	"fmt"
	"iter"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// diffWorkloads enumerates the fixture and generated workloads the
// indexed-candidate differential tests sweep: every paper fixture plus
// synthetic chains across radii (radius 1 exercises the pure
// posting-list join, radius ≥ 2 the neighborhood value-bucket join)
// and both flavored generators.
func diffWorkloads(t *testing.T) []struct {
	name string
	g    *graph.Graph
	set  *keys.Set
} {
	t.Helper()
	out := []struct {
		name string
		g    *graph.Graph
		set  *keys.Set
	}{
		{"music", fixtures.MusicGraph(), fixtures.MusicKeys()},
		{"company", fixtures.CompanyGraph(), fixtures.CompanyKeys()},
		{"address", fixtures.AddressGraph(), fixtures.AddressKeys()},
	}
	for _, cfg := range []struct {
		chain, radius int
	}{{0, 1}, {1, 1}, {2, 2}, {1, 3}} {
		c := gen.DefaultSynthetic()
		c.Chain = cfg.chain
		c.Radius = cfg.radius
		w, err := gen.Synthetic(c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			name string
			g    *graph.Graph
			set  *keys.Set
		}{fmt.Sprintf("synthetic_c%d_d%d", cfg.chain, cfg.radius), w.Graph, w.Keys})
	}
	for _, fl := range []struct {
		name  string
		build func(gen.FlavorConfig) (*gen.Workload, error)
	}{{"google", gen.Google}, {"dbpedia", gen.DBpedia}} {
		w, err := fl.build(gen.FlavorConfig{Seed: 1, Scale: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			name string
			g    *graph.Graph
			set  *keys.Set
		}{fl.name, w.Graph, w.Keys})
	}
	return out
}

// TestIndexedCandidatesDifferential is the central correctness check of
// value-indexed candidate generation: on every workload, the chase over
// the default candidate stream produces exactly the same chase(G, Σ) as
// over the full sweep (match.Options.FullSweep), and the indexed
// candidates are a subset of the full ones.
func TestIndexedCandidatesDifferential(t *testing.T) {
	for _, w := range diffWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			full, err := Run(w.g, w.set, Options{Match: match.Options{FullSweep: true}})
			if err != nil {
				t.Fatal(err)
			}
			indexed, err := Run(w.g, w.set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !eqPairs(full.Pairs, indexed.Pairs) {
				t.Fatalf("indexed chase disagrees with full sweep:\nfull    %v\nindexed %v",
					describe(w.g, full.Pairs), describe(w.g, indexed.Pairs))
			}
			if indexed.Candidates > full.Candidates {
				t.Errorf("indexed L larger than full sweep: %d > %d", indexed.Candidates, full.Candidates)
			}

			stream := func(mo match.Options) iter.Seq[eqrel.Pair] {
				m, err := match.New(w.g, w.set, mo)
				if err != nil {
					t.Fatal(err)
				}
				return m.CandidateStream()
			}
			inFull := make(map[eqrel.Pair]bool)
			for pr := range stream(match.Options{FullSweep: true}) {
				inFull[pr] = true
			}
			prev := eqrel.Pair{A: -1, B: -1}
			for pr := range stream(match.Options{}) {
				if !inFull[pr] {
					t.Fatalf("indexed candidate (%s, %s) not in the full sweep",
						w.g.Label(graph.NodeID(pr.A)), w.g.Label(graph.NodeID(pr.B)))
				}
				if pr == prev {
					t.Fatalf("duplicate indexed candidate (%d, %d)", pr.A, pr.B)
				}
				prev = pr
			}
			t.Logf("|L| full = %d, indexed = %d", full.Candidates, indexed.Candidates)
		})
	}
}

// TestIndexedWithPairing checks the two candidate reductions compose:
// every step the chase over indexed candidates takes is paired by some
// key, so filtering those candidates by pairing still reaches the
// fixpoint of the full sweep.
func TestIndexedWithPairing(t *testing.T) {
	for _, w := range diffWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			ref, err := Run(w.g, w.set, Options{Match: match.Options{FullSweep: true}})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(w.g, w.set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !eqPairs(ref.Pairs, got.Pairs) {
				t.Fatalf("indexed chase disagrees with full sweep")
			}
			stepsPaired(t, w.g, w.set, got)
		})
	}
}

// TestIndexedFallbacks pins the two fallback conditions.
func TestIndexedFallbacks(t *testing.T) {
	// A custom ValueEq can equate distinct value nodes, so the indexed
	// join (which requires a shared interned node) must not be used.
	g := graph.New()
	a := g.MustAddEntity("a", "T")
	b := g.MustAddEntity("b", "T")
	g.MustAddTriple(a, "name", g.AddValue("X"))
	g.MustAddTriple(b, "name", g.AddValue("x"))
	set, err := keys.ParseString("key K for T {\n    x -name-> n*\n}")
	if err != nil {
		t.Fatal(err)
	}
	fold := func(p, q string) bool {
		return p == q || p == "X" && q == "x" || p == "x" && q == "X"
	}
	res, err := Run(g, set, Options{Match: match.Options{ValueEq: fold}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 {
		t.Fatalf("case-folding ValueEq found %d pairs, want 1 (fallback to full sweep)", len(res.Pairs))
	}

	// A purely entity-variable key has no value anchor: its type must
	// fall back to the full sweep (here the witness shares only an
	// entity, never a value).
	g2 := graph.New()
	c := g2.MustAddEntity("c", "T")
	d := g2.MustAddEntity("d", "T")
	e := g2.MustAddEntity("e", "U")
	g2.MustAddTriple(c, "owns", e)
	g2.MustAddTriple(d, "owns", e)
	set2, err := keys.ParseString("key K for T {\n    x -owns-> _:U\n}")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(g2, set2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Pairs) != 1 {
		t.Fatalf("anchor-free key found %d pairs, want 1 (fallback to full sweep)", len(res2.Pairs))
	}
}

func eqPairs(a, b []eqrel.Pair) bool {
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
