package inc

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"graphkeys/internal/fixtures"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/repair_golden.txt from the current engine")

// goldenCase is one mutation sequence of the frozen repair oracle:
// start builds the graph and key set and returns the source of each
// round's batch (nil = the round has nothing to apply).
type goldenCase struct {
	name   string
	rounds int
	start  func(t *testing.T) (*graph.Graph, *keys.Set, func(round int) []*graph.Delta)
}

func generatorCase(name string, cfg testutil.Config) goldenCase {
	return goldenCase{name: name, rounds: 8, start: func(t *testing.T) (*graph.Graph, *keys.Set, func(int) []*graph.Delta) {
		gn := testutil.New(cfg)
		g := graph.New()
		if _, err := g.ApplyDelta(gn.Seed()); err != nil {
			t.Fatal(err)
		}
		set, err := keys.ParseString(gn.Keys())
		if err != nil {
			t.Fatal(err)
		}
		return g, set, gn.Round
	}}
}

func syntheticCase(name string, cfg gen.SyntheticConfig, rounds int, next func(w *gen.Workload) func(round int) *graph.Delta) goldenCase {
	return goldenCase{name: name, rounds: rounds, start: func(t *testing.T) (*graph.Graph, *keys.Set, func(int) []*graph.Delta) {
		w, err := gen.Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		one := next(w)
		return w.Graph, w.Keys, func(round int) []*graph.Delta {
			if d := one(round); d != nil {
				return []*graph.Delta{d}
			}
			return nil
		}
	}}
}

// goldenCases are the TestParallelRepairByteIdentical configurations
// plus a removal cascade over the music fixture, an entity-removal
// sequence and the randomized mutation sequences of the differentials.
func goldenCases() []goldenCase {
	cases := []goldenCase{
		generatorCase("components", testutil.Config{Seed: 5, Groups: 6, PerGroup: 8, EntityChurn: true, Coalesce: true}),
		generatorCase("components-overlap", testutil.Config{Seed: 6, Groups: 6, PerGroup: 8, Overlap: 0.5, EntityChurn: true}),
		generatorCase("rounds-recursive", testutil.Config{Seed: 7, Groups: 4, PerGroup: 8, Bands: true, EntityChurn: true, Coalesce: true}),
		generatorCase("rounds-recursive-overlap", testutil.Config{Seed: 8, Groups: 4, PerGroup: 6, Bands: true, Overlap: 0.5}),
		{name: "removal-cascade", rounds: 6, start: func(t *testing.T) (*graph.Graph, *keys.Set, func(int) []*graph.Delta) {
			seq := []*graph.Delta{
				new(graph.Delta).RemoveValueTriple("alb2", "release_year", "1996"),
				new(graph.Delta).AddValueTriple("alb2", "release_year", "1996"),
				new(graph.Delta).RemoveTriple("alb2", "recorded_by", "art2"),
				new(graph.Delta).AddTriple("alb2", "recorded_by", "art2"),
				new(graph.Delta).RemoveValueTriple("art1", "name_of", "The Beatles").RemoveValueTriple("alb1", "name_of", "Anthology 2"),
				new(graph.Delta).AddValueTriple("art1", "name_of", "The Beatles").AddValueTriple("alb1", "name_of", "Anthology 2"),
			}
			return fixtures.MusicGraph(), fixtures.MusicKeys(), func(round int) []*graph.Delta { return seq[round : round+1] }
		}},
	}
	removeCfg := gen.DefaultSynthetic()
	removeCfg.Seed = 42
	removeCfg.EntitiesPerType = 30
	cases = append(cases, syntheticCase("remove-entity", removeCfg, 8, func(w *gen.Workload) func(int) *graph.Delta {
		rng := rand.New(rand.NewSource(99))
		var entities []string
		w.Graph.EachEntity(func(n graph.NodeID) {
			entities = append(entities, w.Graph.Label(n))
		})
		return func(round int) *graph.Delta {
			d := &graph.Delta{}
			victim := entities[rng.Intn(len(entities))]
			d.RemoveEntity(victim)
			if other := entities[rng.Intn(len(entities))]; round%2 == 0 && other != victim {
				d.AddValueTriple(other, "churn_attr", fmt.Sprintf("v%d", round))
			}
			return d
		}
	}))
	for _, seed := range []int64{1, 2, 3} {
		cfg := gen.DefaultSynthetic()
		cfg.Seed = seed
		cases = append(cases, syntheticCase(fmt.Sprintf("random-mutations-%d", seed), cfg, 40, func(w *gen.Workload) func(int) *graph.Delta {
			mut := &randomMutator{g: w.Graph, set: w.Keys, rng: rand.New(rand.NewSource(seed * 7919))}
			return mut.next
		}))
	}
	return cases
}

// TestRepairGolden pins the repair pass to a frozen oracle. Each line
// of the golden file is one round of one case — p=1 records that the
// pass runs on one goroutine — with a SHA-256 over the graph text, the
// pairs, the step log with its generations, the pass stats with Checked
// zeroed and the reported added/removed diff — the oracle — followed by
// Stats.Checked in decimal. The repair must reproduce the oracle column
// exactly, not just the fixpoint but the step log order; the count may
// only stay or fall (testutil.Golden). Regenerate with -update only when
// a change to the repair sequence is intended, or to record a count that
// fell.
//
// The rows were first generated by the whole-log invalidation (fresh
// union-find, full step-log replay, pairs re-materialized from the
// relation) under three seed-chasing drivers. 14 of them — components
// rounds 3–7, components-overlap rounds 0–7 and rounds-recursive-overlap
// round 7 — were re-frozen when the repair pass became one drain: they
// are what the FIFO drain of the seeds in seed order logs. They moved
// because the deleted drivers each imposed an order of their own where
// the Church–Rosser property leaves it free: without recursive keys the
// seeds were regrouped by connected component and the components' steps
// logged one component after another, and a large recursive pass checked
// its first round against a stale copy of the relation (27 checks in
// that round 7, 21 against the live one). Since an engine that froze its
// own output proves nothing, every round here is also certified
// independently of the file: the step log replays as a valid chasing
// sequence that rebuilds the pairs, and the pairs equal chase.Run of the
// mutated graph.
func TestRepairGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range goldenCases() {
		g, set, next := tc.start(t)
		e, err := New(g, set, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for round := 0; round < tc.rounds; round++ {
			ds := next(round)
			if ds == nil {
				continue
			}
			added, removed, err := e.ApplyEach(ds, nil)
			if err != nil {
				t.Fatalf("%s round %d: %v", tc.name, round, err)
			}
			checkIndexes(t, e)
			replayCheckSteps(t, g, e.Steps(), e.Pairs())
			if !pairsEqual(e.Pairs(), fullPairs(t, g, set)) {
				t.Fatalf("%s round %d: pairs differ from chase.Run of the mutated graph", tc.name, round)
			}
			var text strings.Builder
			if err := g.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			stats := e.LastStats()
			checked := stats.Checked
			stats.Checked = 0
			sum := sha256.Sum256(fmt.Appendf(nil, "%s\n%s\n%s\n%v\n%+v\n%v\n%v\n",
				text.String(), dumpPairs(e.Pairs()), dumpSteps(e.Steps()), e.StepSeqs(), stats, added, removed))
			fmt.Fprintf(&got, "%s p=1 round=%d %x checked=%d\n", tc.name, round, sum, checked)
		}
	}
	testutil.Golden(t, filepath.Join("testdata", "repair_golden.txt"), got.String(), 1, *update)
}
