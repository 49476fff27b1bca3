package inc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

// assertMatchesFullChase re-runs the full sequential chase on the
// engine's (already mutated) graph and compares fixpoints.
func assertMatchesFullChase(t *testing.T, e *Engine, set *keys.Set, ctx string) {
	t.Helper()
	full, err := chase.Run(e.Graph(), set, chase.Options{})
	if err != nil {
		t.Fatalf("%s: full chase: %v", ctx, err)
	}
	if !reflect.DeepEqual(e.Eq().Pairs(), full.Pairs) {
		t.Fatalf("%s: incremental %v != full re-chase %v", ctx, e.Eq().Pairs(), full.Pairs)
	}
}

// TestRemoveEntityInvalidatesItsPairs removes one side of an
// identified pair: every identification involving the entity must
// disappear, reported as removed, and the fixpoint must equal a fresh
// chase of the mutated graph.
func TestRemoveEntityInvalidatesItsPairs(t *testing.T) {
	g, set := fixtures.MusicGraph(), fixtures.MusicKeys()
	e, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Eq().Pairs()) == 0 {
		t.Fatal("music fixture identified nothing")
	}
	victim := graph.NodeID(e.Eq().Pairs()[0].A)
	victimID := g.Label(victim)

	d := &graph.Delta{}
	d.RemoveEntity(victimID)
	added, removed, err := e.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 0 {
		t.Fatalf("removal added pairs: %v", added)
	}
	if len(removed) == 0 {
		t.Fatal("removing an identified entity removed no pairs")
	}
	for _, pr := range e.Eq().Pairs() {
		if graph.NodeID(pr.A) == victim || graph.NodeID(pr.B) == victim {
			t.Fatalf("tombstoned entity still identified: %v", pr)
		}
	}
	assertMatchesFullChase(t, e, set, "after removal")

	// Re-adding the entity with the same attributes restores its pairs.
	re := &graph.Delta{}
	re.AddEntity(victimID, "album")
	re.AddValueTriple(victimID, "name_of", "Anthology 2")
	re.AddValueTriple(victimID, "release_year", "1996")
	addedBack, _, err := e.Apply(re)
	if err != nil {
		t.Fatal(err)
	}
	if len(addedBack) == 0 {
		t.Fatal("re-adding the entity with identifying attributes restored nothing")
	}
	assertMatchesFullChase(t, e, set, "after re-add")
}

// TestRemoveEntityRandomDifferential drives random entity removals
// (interleaved with triple churn) through the engine on a synthetic
// workload, checking against a full re-chase after every delta.
func TestRemoveEntityRandomDifferential(t *testing.T) {
	cfg := gen.DefaultSynthetic()
	cfg.Seed = 42
	cfg.EntitiesPerType = 30
	w, err := gen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w.Graph, w.Keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var entities []string
	w.Graph.EachEntity(func(n graph.NodeID) {
		entities = append(entities, w.Graph.Label(n))
	})
	for round := 0; round < 8; round++ {
		d := &graph.Delta{}
		victim := entities[rng.Intn(len(entities))]
		d.RemoveEntity(victim)
		if round%2 == 0 {
			// Also churn an unrelated attribute in the same delta.
			other := entities[rng.Intn(len(entities))]
			if other != victim {
				d.AddValueTriple(other, "churn_attr", fmt.Sprintf("v%d", round))
			}
		}
		if _, _, err := e.Apply(d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkIndexes(t, e)
		assertMatchesFullChase(t, e, w.Keys, fmt.Sprintf("round %d (removed %s)", round, victim))
	}
}
