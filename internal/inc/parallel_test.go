package inc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/testutil"
)

// repairRun drives one engine at the given repair parallelism over the
// generator's sequence (graph phase single-worker, so dense node IDs
// are identical across runs) and captures everything repair produces.
type repairRun struct {
	graphText string
	pairs     string
	steps     string
	stats     []Stats
}

func runRepairSequence(t *testing.T, gen *testutil.Generator, opts Options, rounds int) repairRun {
	t.Helper()
	g := graph.New()
	if _, err := g.ApplyDelta(gen.Seed()); err != nil {
		t.Fatal(err)
	}
	set, err := keys.ParseString(gen.Keys())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, set, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stats []Stats
	for round := 0; round < rounds; round++ {
		if _, _, err := e.ApplyAll(gen.Round(round), 1); err != nil {
			t.Fatalf("p=%d round %d: %v", opts.Parallelism, round, err)
		}
		checkIndexes(t, e)
		stats = append(stats, e.LastStats())
	}
	var sb strings.Builder
	if err := g.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	// The differential closure: the maintained fixpoint must equal a
	// full re-chase of the mutated graph, at every parallelism.
	full, err := chase.Run(g, set, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(e.Pairs(), full.Pairs) {
		t.Fatalf("p=%d: incremental pairs diverge from full re-chase", opts.Parallelism)
	}
	return repairRun{
		graphText: sb.String(),
		pairs:     dumpPairs(e.Pairs()),
		steps:     dumpSteps(e.Steps()),
		stats:     stats,
	}
}

func dumpPairs(ps []eqrel.Pair) string {
	var sb strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&sb, "%d-%d\n", p.A, p.B)
	}
	return sb.String()
}

func dumpSteps(steps []chase.Step) string {
	var sb strings.Builder
	for _, st := range steps {
		fmt.Fprintf(&sb, "%d-%d %s req=%v uses=%v\n", st.Pair.A, st.Pair.B, st.Key, st.Requires, st.Uses)
	}
	return sb.String()
}

// replayCheckSteps asserts the step log is a valid chasing sequence:
// every step's Requires already hold in the relation the earlier steps
// built, and the replayed relation identifies every final pair.
func replayCheckSteps(t *testing.T, g *graph.Graph, steps []chase.Step, want []eqrel.Pair) {
	t.Helper()
	eq := eqrel.New(g.NumNodes())
	for i, st := range steps {
		for _, r := range st.Requires {
			if !eq.Same(r.A, r.B) {
				t.Fatalf("step %d (%d,%d): requires (%d,%d) not yet derived", i, st.Pair.A, st.Pair.B, r.A, r.B)
			}
		}
		eq.Union(st.Pair.A, st.Pair.B)
	}
	for _, p := range want {
		if !eq.Same(p.A, p.B) {
			t.Fatalf("replayed steps miss pair (%d,%d)", p.A, p.B)
		}
	}
}

// TestParallelRepairByteIdentical is the tentpole differential test:
// repair at p ∈ {2, 4, 8} must produce byte-identical pairs, step log
// and stats to sequential repair (p = 1), without recursive keys (the
// "components" configurations) and with them ("rounds"), with
// overlapping delta footprints, entity churn and coalescing ops in the
// mix. The worker count reaches the region and partner scans only; the
// seeds they produce must come out in the same order.
func TestParallelRepairByteIdentical(t *testing.T) {
	const rounds = 8
	configs := []struct {
		name string
		cfg  testutil.Config
	}{
		{"components", testutil.Config{Seed: 5, Groups: 6, PerGroup: 8, EntityChurn: true, Coalesce: true}},
		{"components-overlap", testutil.Config{Seed: 6, Groups: 6, PerGroup: 8, Overlap: 0.5, EntityChurn: true}},
		{"rounds-recursive", testutil.Config{Seed: 7, Groups: 4, PerGroup: 8, Bands: true, EntityChurn: true, Coalesce: true}},
		{"rounds-recursive-overlap", testutil.Config{Seed: 8, Groups: 4, PerGroup: 6, Bands: true, Overlap: 0.5}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			gen := testutil.New(tc.cfg)
			ref := runRepairSequence(t, gen, Options{Parallelism: 1}, rounds)
			for _, p := range []int{2, 4, 8} {
				got := runRepairSequence(t, gen, Options{Parallelism: p}, rounds)
				if got.graphText != ref.graphText {
					t.Fatalf("p=%d: graph text diverges from sequential", p)
				}
				if got.pairs != ref.pairs {
					t.Fatalf("p=%d: pairs diverge from sequential:\ngot:  %s\nwant: %s", p, got.pairs, ref.pairs)
				}
				if got.steps != ref.steps {
					t.Fatalf("p=%d: step log diverges from sequential:\ngot:\n%s\nwant:\n%s", p, got.steps, ref.steps)
				}
				if !reflect.DeepEqual(got.stats, ref.stats) {
					t.Fatalf("p=%d: repair stats diverge from sequential:\ngot:  %+v\nwant: %+v", p, got.stats, ref.stats)
				}
			}
		})
	}
}

// TestParallelRepairStepLogReplays checks that the step log a parallel
// repair leaves behind is a valid chasing sequence: replaying it in
// order — asserting each step's Requires against the relation built so
// far — reconstructs the fixpoint.
func TestParallelRepairStepLogReplays(t *testing.T) {
	gen := testutil.New(testutil.Config{Seed: 13, Groups: 4, PerGroup: 8, Bands: true, EntityChurn: true})
	g := graph.New()
	if _, err := g.ApplyDelta(gen.Seed()); err != nil {
		t.Fatal(err)
	}
	set, err := keys.ParseString(gen.Keys())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, set, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if _, _, err := e.ApplyAll(gen.Round(round), 1); err != nil {
			t.Fatal(err)
		}
	}
	replayCheckSteps(t, g, e.Steps(), e.Pairs())
}
