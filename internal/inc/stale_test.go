package inc

import (
	"graphkeys/internal/keys"
	"testing"

	"graphkeys/internal/fixtures"
	"graphkeys/internal/graph"
)

// TestNeighborhoodCacheFreshAcrossApplies is the regression test for
// the stale-neighborhood bug class the incremental engine depends on
// avoiding: the matcher caches d-neighborhoods on first request (the
// region and dependents scans ask for them), so an engine that kept one
// matcher across Applies would scan pre-mutation neighborhoods. The
// scenario fills the cache during one Apply, then adds the triple that
// completes a Q2 witness: the identification, and its cascade, must
// follow.
func TestNeighborhoodCacheFreshAcrossApplies(t *testing.T) {
	g := graph.New()
	alb1 := g.MustAddEntity("alb1", "album")
	alb2 := g.MustAddEntity("alb2", "album")
	art1 := g.MustAddEntity("art1", "artist")
	art2 := g.MustAddEntity("art2", "artist")
	anthology := g.AddValue("Anthology 2")
	g.MustAddTriple(alb1, "name_of", anthology)
	g.MustAddTriple(alb2, "name_of", anthology)
	g.MustAddTriple(alb1, "release_year", g.AddValue("1996"))
	g.MustAddTriple(alb1, "recorded_by", art1)
	g.MustAddTriple(alb2, "recorded_by", art2)
	beatles := g.AddValue("The Beatles")
	g.MustAddTriple(art1, "name_of", beatles)
	g.MustAddTriple(art2, "name_of", beatles)

	e, err := New(g, fixtures.MusicKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Pairs()) != 0 {
		t.Fatalf("initial chase identified %v, want nothing (alb2 has no release year)", e.Pairs())
	}

	// Apply 1: a no-consequence addition next to alb1. The region scan
	// caches the neighborhoods around it, repair seeds (alb1, alb2) —
	// they share a name — and the Q1 check fails (the artists are not
	// yet identified).
	d1 := new(graph.Delta).AddValueTriple("alb1", "label_of", "EMI")
	added, _, err := e.Apply(d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 0 {
		t.Fatalf("noise delta identified %v", added)
	}
	if e.LastStats().Checked == 0 {
		t.Fatal("noise delta checked no pairs; the scenario no longer caches neighborhoods")
	}

	// Apply 2: complete alb2's Q2 witness.
	d2 := new(graph.Delta).AddValueTriple("alb2", "release_year", "1996")
	added, _, err = e.Apply(d2)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Eq().Same(int32(alb1), int32(alb2)) {
		t.Fatal("albums not identified after completing the Q2 witness: stale neighborhood cache")
	}
	// Q3 must cascade to the artists through the fresh album pair.
	if !e.Eq().Same(int32(art1), int32(art2)) {
		t.Fatal("artist cascade missed after album identification")
	}
	if len(added) != 2 {
		t.Fatalf("added = %v, want the album and artist pairs", added)
	}
}

// TestCompiledKeysFollowVocabulary is the other half of keeping the
// compiled keys across passes: a key that cannot match when the engine
// is built — its predicate, its constant or its type does not occur in
// the graph yet — must start identifying once a delta introduces the
// missing name. Each case ends equal to a full re-chase.
func TestCompiledKeysFollowVocabulary(t *testing.T) {
	for _, tc := range []struct {
		name, keys string
		delta      *graph.Delta
	}{
		{
			name: "predicate",
			keys: "key K for person {\n    x -email-> e*\n}",
			delta: new(graph.Delta).
				AddValueTriple("p1", "email", "a@example.org").
				AddValueTriple("p2", "email", "a@example.org"),
		},
		{
			name: "constant",
			keys: "key K for person {\n    x -name_of-> n*\n    x -nation_of-> \"UK\"\n}",
			delta: new(graph.Delta).
				AddValueTriple("p1", "nation_of", "UK").
				AddValueTriple("p2", "nation_of", "UK"),
		},
		{
			name: "type",
			keys: "key K for band {\n    x -name_of-> n*\n    x -led_by-> $y:person\n}",
			delta: new(graph.Delta).
				AddEntity("b1", "band").AddEntity("b2", "band").
				AddValueTriple("b1", "name_of", "The Band").AddValueTriple("b2", "name_of", "The Band").
				AddTriple("b1", "led_by", "p1").AddTriple("b2", "led_by", "p1"),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New()
			for _, id := range []string{"p1", "p2"} {
				p := g.MustAddEntity(id, "person")
				g.MustAddTriple(p, "name_of", g.AddValue("Pat"))
				// The constant case resolves its predicate from the start,
				// so only the constant is missing.
				g.MustAddTriple(p, "nation_of", g.AddValue("FR"))
			}
			set, err := keys.ParseString(tc.keys)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(g, set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(e.Pairs()) != 0 {
				t.Fatalf("initial chase identified %v with the key unmatchable", e.Pairs())
			}
			// A pass that changes nothing the key waits for keeps it
			// unmatchable.
			if _, _, err := e.Apply(new(graph.Delta).AddValueTriple("p1", "name_of", "Patricia")); err != nil {
				t.Fatal(err)
			}
			added, _, err := e.Apply(tc.delta)
			if err != nil {
				t.Fatal(err)
			}
			if len(added) != 1 {
				t.Fatalf("added = %v, want the one pair the key identifies once its %s exists", added, tc.name)
			}
			checkIndexes(t, e)
			if full := fullPairs(t, g, set); !pairsEqual(e.Pairs(), full) {
				t.Fatalf("incremental %v != full re-chase %v", e.Pairs(), full)
			}
		})
	}
}
