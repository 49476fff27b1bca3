package inc

import (
	"math/rand"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

// graphOps flattens a graph into the ops that build it, one per live
// entity and then one per triple (shuffled, so a prefix holds a mix of
// every type's triples). Every op adds exactly one entity or triple.
func graphOps(g *graph.Graph, rng *rand.Rand) []func(*graph.Delta) {
	var ops []func(*graph.Delta)
	g.EachEntity(func(n graph.NodeID) {
		id, typeName := g.Label(n), g.TypeName(g.TypeOf(n))
		ops = append(ops, func(d *graph.Delta) { d.AddEntity(id, typeName) })
	})
	first := len(ops)
	for _, tr := range g.Triples() {
		ops = append(ops, recordTriple(g, tr).addOp)
	}
	trs := ops[first:]
	rng.Shuffle(len(trs), func(i, j int) { trs[i], trs[j] = trs[j], trs[i] })
	return ops
}

func deltaOf(ops []func(*graph.Delta)) *graph.Delta {
	d := &graph.Delta{}
	for _, op := range ops {
		op(d)
	}
	return d
}

// runBulk loads the ops into an empty engine as two deltas, the second
// one the last `suffix` ops (as one delta when suffix is all of them),
// asserts which path the second pass took, and continues with small
// deltas: flips of triples the installed steps used, then the random
// mutator. After every pass the indices, the pairs against a re-chase
// and the step log as a chasing sequence are checked.
func runBulk(t *testing.T, set *keys.Set, ops []func(*graph.Delta), suffix int, rebuilt bool) {
	t.Helper()
	g := graph.New()
	e, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ctx string, d *graph.Delta) {
		t.Helper()
		prev := append([]eqrel.Pair(nil), e.Eq().Pairs()...)
		added, removed, err := e.Apply(d)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		checkIndexes(t, e)
		full, err := chase.Run(g, set, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(e.Eq().Pairs(), full.Pairs) {
			t.Fatalf("%s: pairs diverge from a re-chase\ninc:  %v\nfull: %v", ctx, e.Eq().Pairs(), full.Pairs)
		}
		if !pairsEqual(applyDiff(prev, added, removed), e.Eq().Pairs()) {
			t.Fatalf("%s: prev + added - removed != pairs", ctx)
		}
		replayCheckSteps(t, g, e.Steps(), e.Eq().Pairs())
	}

	if suffix < len(ops) {
		apply("prefix", deltaOf(ops[:len(ops)-suffix]))
	}
	apply("bulk", deltaOf(ops[len(ops)-suffix:]))
	if got := g.NumTriples() + g.NumEntities(); got != len(ops) {
		t.Fatalf("graph holds %d entities and triples after %d ops", got, len(ops))
	}
	st := e.LastStats()
	if rebuilt {
		full, err := chase.Run(g, set, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := (Stats{Merged: 1, Checked: full.Candidates, Identified: len(full.Steps)}); st != want {
			t.Fatalf("rebuild pass reports %+v, want the chase's %+v", st, want)
		}
		if dumpSteps(e.Steps()) != dumpSteps(full.Steps) {
			t.Fatal("rebuild pass did not install the chase's sequence")
		}
		for i, s := range e.StepSeqs() {
			if s != e.Seq() {
				t.Fatalf("step %d carries generation %d after a rebuild at %d", i, s, e.Seq())
			}
		}
	} else if st.Region == 0 {
		t.Fatalf("a delta below the doubling rule did not repair: %+v", st)
	}
	if len(e.Steps()) < 8 {
		t.Fatalf("only %d steps to flip", len(e.Steps()))
	}

	// Removals that hit the provenance of the steps just installed.
	var recs []tripleRec
	for i := 0; i < 8; i++ {
		recs = append(recs, recordTriple(g, e.Steps()[i*len(e.Steps())/8].Uses[0]))
	}
	suspects := 0
	for _, rec := range recs {
		rem, add := &graph.Delta{}, &graph.Delta{}
		rec.removeOp(rem)
		rec.addOp(add)
		apply("flip-remove", rem)
		suspects += e.LastStats().Suspects
		apply("flip-add", add)
	}
	if suspects == 0 {
		t.Fatal("no flip invalidated a step")
	}
	mut := &randomMutator{g: g, set: set, rng: rand.New(rand.NewSource(17))}
	for round := 0; round < 12; round++ {
		if d := mut.next(round); d != nil {
			apply("mutation", d)
		}
	}
}

// TestBulkDeltaDifferential drives the doubling rule from both sides on
// a generated graph with recursive chains: everything as one delta onto
// an empty engine, a second delta one op short of half the graph
// (repaired incrementally) and one at exactly half (rebuilt), each
// followed by small deltas.
func TestBulkDeltaDifferential(t *testing.T) {
	cfg := gen.DefaultSynthetic()
	cfg.Seed = 3
	w, err := gen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := graphOps(w.Graph, rand.New(rand.NewSource(11)))
	n := len(ops)
	atRule := (n + 1) / 2 // the smallest delta with 2·|delta| ≥ n
	for _, tc := range []struct {
		name    string
		suffix  int
		rebuilt bool
	}{
		{"all-at-once", n, true},
		{"one-below-rule", atRule - 1, false},
		{"at-rule", atRule, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runBulk(t, w.Keys, ops, tc.suffix, tc.rebuilt)
		})
	}
}
