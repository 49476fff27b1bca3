package inc

import (
	"fmt"
	"strings"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/testutil"
)

// repairRun drives one engine over the generator's sequence (one
// delta at a time, so dense node IDs are identical across runs) and
// captures everything repair produces.
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
		if _, _, err := e.ApplyEach(gen.Round(round), nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkIndexes(t, e)
		stats = append(stats, e.LastStats())
	}
	var sb strings.Builder
	if err := g.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	// The differential closure: the maintained fixpoint must equal a
	// full re-chase of the mutated graph.
	full, err := chase.Run(g, set, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(e.Eq().Pairs(), full.Pairs) {
		t.Fatal("incremental pairs diverge from full re-chase")
	}
	replayCheckSteps(t, g, e.Steps(), e.Eq().Pairs())
	return repairRun{
		graphText: sb.String(),
		pairs:     dumpPairs(e.Eq().Pairs()),
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

// TestParallelRepairByteIdentical is the repair pass's differential
// test: after every round of a mutation sequence the indices rebuild
// from the step log, and at the end the maintained pairs equal a full
// re-chase of the mutated graph and the step log replays as a chasing
// sequence — without recursive keys (the "components" configurations)
// and with them ("rounds"), with overlapping delta footprints, entity
// churn and coalescing ops in the mix.
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
			runRepairSequence(t, testutil.New(tc.cfg), Options{}, rounds)
		})
	}
}

// TestParallelRepairStepLogReplays checks that the step log repair
// leaves behind is a valid chasing sequence: replaying it in
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
	e, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if _, _, err := e.ApplyEach(gen.Round(round), nil); err != nil {
			t.Fatal(err)
		}
	}
	replayCheckSteps(t, g, e.Steps(), e.Eq().Pairs())
}
