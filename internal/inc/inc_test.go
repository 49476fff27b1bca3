package inc

import (
	"math/rand"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

func fullPairs(t *testing.T, g *graph.Graph, set *keys.Set) []eqrel.Pair {
	t.Helper()
	res, err := chase.Run(g, set, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Pairs
}

func pairsEqual(a, b []eqrel.Pair) bool {
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

func mustPair(t *testing.T, g *graph.Graph, a, b string) eqrel.Pair {
	t.Helper()
	na, ok := g.Entity(a)
	if !ok {
		t.Fatalf("no entity %q", a)
	}
	nb, ok := g.Entity(b)
	if !ok {
		t.Fatalf("no entity %q", b)
	}
	return eqrel.MakePair(int32(na), int32(nb))
}

// TestRemovalCascade exercises the provenance-driven invalidation on
// the paper's music graph: dropping alb2's release year destroys
// (alb1, alb2) under Q2, which cascades to (art1, art2) because Q3's
// proof requires the album pair; re-adding the triple restores both.
func TestRemovalCascade(t *testing.T) {
	g := fixtures.MusicGraph()
	set := fixtures.MusicKeys()
	e, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	albums := mustPair(t, g, "alb1", "alb2")
	artists := mustPair(t, g, "art1", "art2")
	if !pairsEqual(e.Pairs(), []eqrel.Pair{albums, artists}) {
		t.Fatalf("initial pairs = %v, want album and artist pairs", e.Pairs())
	}

	d := &graph.Delta{}
	d.RemoveValueTriple("alb2", "release_year", "1996")
	added, removed, err := e.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 0 {
		t.Fatalf("removal added pairs: %v", added)
	}
	if !pairsEqual(removed, []eqrel.Pair{albums, artists}) {
		t.Fatalf("removed = %v, want both pairs (cascade)", removed)
	}
	if len(e.Pairs()) != 0 {
		t.Fatalf("pairs after removal = %v, want none", e.Pairs())
	}
	if got := fullPairs(t, g, set); !pairsEqual(e.Pairs(), got) {
		t.Fatalf("incremental %v != full re-chase %v", e.Pairs(), got)
	}

	back := &graph.Delta{}
	back.AddValueTriple("alb2", "release_year", "1996")
	added, removed, err = e.Apply(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("re-add removed pairs: %v", removed)
	}
	if !pairsEqual(added, []eqrel.Pair{albums, artists}) {
		t.Fatalf("added = %v, want both pairs restored", added)
	}
	if got := fullPairs(t, g, set); !pairsEqual(e.Pairs(), got) {
		t.Fatalf("incremental %v != full re-chase %v", e.Pairs(), got)
	}
}

// TestAdditionNewEntity grows the music graph with a fourth duplicate
// album and artist and checks the new identifications appear, cascading
// through the recursive keys.
func TestAdditionNewEntity(t *testing.T) {
	g := fixtures.MusicGraph()
	set := fixtures.MusicKeys()
	e, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := &graph.Delta{}
	d.AddEntity("alb4", "album").
		AddEntity("art4", "artist").
		AddValueTriple("alb4", "name_of", "Anthology 2").
		AddValueTriple("alb4", "release_year", "1996").
		AddTriple("alb4", "recorded_by", "art4").
		AddValueTriple("art4", "name_of", "The Beatles")
	added, removed, err := e.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("addition removed pairs: %v", removed)
	}
	// alb4 joins {alb1, alb2} via Q2, then art4 joins {art1, art2} via
	// Q3: two new album pairs and two new artist pairs.
	if len(added) != 4 {
		t.Fatalf("added = %v, want 4 new pairs", added)
	}
	if got := fullPairs(t, g, set); !pairsEqual(e.Pairs(), got) {
		t.Fatalf("incremental %v != full re-chase %v", e.Pairs(), got)
	}
}

// TestRedundantWitnessSurvivesRemoval checks that an identification
// with two independent witnesses survives losing one: alb1/alb2 are
// identified by Q2 (name+year); removing alb2's recorded_by edge kills
// only Q1/Q3-dependent facts, and the album pair must survive while
// the artist pair falls.
func TestRedundantWitnessSurvivesRemoval(t *testing.T) {
	g := fixtures.MusicGraph()
	set := fixtures.MusicKeys()
	e, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	albums := mustPair(t, g, "alb1", "alb2")
	artists := mustPair(t, g, "art1", "art2")

	d := &graph.Delta{}
	d.RemoveTriple("alb2", "recorded_by", "art2")
	_, removed, err := e.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(e.Pairs(), []eqrel.Pair{albums}) {
		t.Fatalf("pairs = %v, want only the album pair to survive", e.Pairs())
	}
	if !pairsEqual(removed, []eqrel.Pair{artists}) {
		t.Fatalf("removed = %v, want only the artist pair", removed)
	}
	if got := fullPairs(t, g, set); !pairsEqual(e.Pairs(), got) {
		t.Fatalf("incremental %v != full re-chase %v", e.Pairs(), got)
	}
}

// TestClassSplitRecoversSkippedWitness is the regression test for the
// transitivity blind spot: the original chase identifies (a,b) and
// (a,c) and then skips (b,c) as already Same, so no step records
// (b,c)'s independent witness. A removal that splits the class must
// still recover (b,c) — the whole old class is suspect, not only the
// dropped step's pair.
func TestClassSplitRecoversSkippedWitness(t *testing.T) {
	g := graph.New()
	a := g.MustAddEntity("a", "T")
	b := g.MustAddEntity("b", "T")
	c := g.MustAddEntity("c", "T")
	hub1 := g.AddValue("hub1")
	hub2 := g.AddValue("hub2")
	z := g.AddValue("z")
	g.MustAddTriple(a, "p", hub1)
	g.MustAddTriple(b, "p", hub1)
	g.MustAddTriple(a, "p", hub2)
	g.MustAddTriple(c, "p", hub2)
	g.MustAddTriple(b, "q", z)
	g.MustAddTriple(c, "q", z)
	set, err := keys.ParseString(`
key K1 for T {
    x -p-> v*
}
key K2 for T {
    x -q-> w*
}`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Pairs()) != 3 {
		t.Fatalf("initial pairs = %v, want the full triangle", e.Pairs())
	}

	// Drop b's K1 witness. (a,b) falls; (a,c) survives via hub2; (b,c)
	// must survive via its never-recorded K2 witness through z.
	d := &graph.Delta{}
	d.RemoveValueTriple("b", "p", "hub1")
	_, removed, err := e.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	full := fullPairs(t, g, set)
	if !pairsEqual(e.Pairs(), full) {
		t.Fatalf("incremental %v != full re-chase %v", e.Pairs(), full)
	}
	if len(full) != 3 {
		// (b,c) by K2 and (a,c) by K1 keep the triangle connected.
		t.Fatalf("full re-chase = %v, want the triangle to survive via K2", full)
	}
	if len(removed) != 0 {
		t.Fatalf("removed = %v, want none", removed)
	}
}

// TestEmptyAndNoopDeltas: applying an empty delta, or one whose ops are
// all no-ops, must change nothing.
func TestEmptyAndNoopDeltas(t *testing.T) {
	g := fixtures.MusicGraph()
	e, err := New(g, fixtures.MusicKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := len(e.Pairs())
	for _, d := range []*graph.Delta{
		{},
		(&graph.Delta{}).AddValueTriple("alb1", "name_of", "Anthology 2"), // duplicate
		(&graph.Delta{}).RemoveValueTriple("alb1", "name_of", "nope"),     // absent
		(&graph.Delta{}).AddEntity("alb1", "album"),                       // existing
	} {
		added, removed, err := e.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(added) != 0 || len(removed) != 0 {
			t.Fatalf("no-op delta reported added=%v removed=%v", added, removed)
		}
	}
	if len(e.Pairs()) != before {
		t.Fatalf("no-op deltas changed the fixpoint")
	}
}

// TestFailedDeltaLeavesStateIntact: an invalid delta must not disturb
// graph or fixpoint.
func TestFailedDeltaLeavesStateIntact(t *testing.T) {
	g := fixtures.MusicGraph()
	e, err := New(g, fixtures.MusicKeys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]eqrel.Pair(nil), e.Pairs()...)
	trips := g.NumTriples()
	bad := (&graph.Delta{}).RemoveValueTriple("alb2", "release_year", "1996").
		AddTriple("ghost", "recorded_by", "art1")
	if _, _, err := e.Apply(bad); err == nil {
		t.Fatal("invalid delta did not error")
	}
	if g.NumTriples() != trips {
		t.Fatal("failed delta mutated the graph")
	}
	if !pairsEqual(e.Pairs(), before) {
		t.Fatal("failed delta mutated the fixpoint")
	}
}

// tripleRec is the string form of a triple, for building replay deltas.
type tripleRec struct {
	subj, pred, obj string
	objIsValue      bool
}

func recordTriple(g *graph.Graph, tr graph.Triple) tripleRec {
	return tripleRec{
		subj:       g.Label(tr.S),
		pred:       g.PredName(tr.P),
		obj:        g.Label(tr.O),
		objIsValue: g.IsValue(tr.O),
	}
}

func (r tripleRec) removeOp(d *graph.Delta) {
	if r.objIsValue {
		d.RemoveValueTriple(r.subj, r.pred, r.obj)
	} else {
		d.RemoveTriple(r.subj, r.pred, r.obj)
	}
}

func (r tripleRec) addOp(d *graph.Delta) {
	if r.objIsValue {
		d.AddValueTriple(r.subj, r.pred, r.obj)
	} else {
		d.AddTriple(r.subj, r.pred, r.obj)
	}
}

// keyedEntityIDs lists the external IDs of entities whose type has a
// key.
func keyedEntityIDs(g *graph.Graph, set *keys.Set) []string {
	var out []string
	for _, tn := range set.Types() {
		tid, ok := g.TypeByName(tn)
		if !ok {
			continue
		}
		for _, n := range g.EntitiesOfType(tid) {
			out = append(out, g.Label(n))
		}
	}
	return out
}

// randomMutator generates the mutation sequence of the randomized
// differentials: removals, re-adds of previously removed triples,
// entity clones and severed out-edges, drawn against the graph's
// current state.
type randomMutator struct {
	g    *graph.Graph
	set  *keys.Set
	rng  *rand.Rand
	pool []tripleRec // removed triples available for re-adding
}

// next returns the delta of the given round, or nil when the round has
// nothing to do.
func (m *randomMutator) next(round int) *graph.Delta {
	g, rng := m.g, m.rng
	d := &graph.Delta{}
	switch round % 4 {
	case 0: // remove a few random triples
		trs := g.Triples()
		for i := 0; i < 1+rng.Intn(4); i++ {
			rec := recordTriple(g, trs[rng.Intn(len(trs))])
			m.pool = append(m.pool, rec)
			rec.removeOp(d)
		}
	case 1: // re-add previously removed triples
		for len(m.pool) > 0 && d.Len() < 3 {
			i := rng.Intn(len(m.pool))
			m.pool[i].addOp(d)
			m.pool = append(m.pool[:i], m.pool[i+1:]...)
		}
		if d.Len() == 0 {
			return nil
		}
	case 2: // clone a random keyed entity (out-edges shared)
		ids := keyedEntityIDs(g, m.set)
		src := ids[rng.Intn(len(ids))]
		n, _ := g.Entity(src)
		cloneID := src + "_clone"
		if _, exists := g.Entity(cloneID); exists {
			return nil
		}
		d.AddEntity(cloneID, g.TypeName(g.TypeOf(n)))
		for _, edge := range g.Out(n) {
			rec := tripleRec{
				subj:       cloneID,
				pred:       g.PredName(edge.Pred),
				obj:        g.Label(edge.To),
				objIsValue: g.IsValue(edge.To),
			}
			rec.addOp(d)
		}
	case 3: // sever a random out-edge of a keyed entity — this
		// targets witnesses directly, including the redundant
		// witnesses of classes grown by cloning (the class-split
		// regression scenario).
		ids := keyedEntityIDs(g, m.set)
		src := ids[rng.Intn(len(ids))]
		n, _ := g.Entity(src)
		out := g.Out(n)
		if len(out) == 0 {
			return nil
		}
		edge := out[rng.Intn(len(out))]
		rec := recordTriple(g, graph.Triple{S: n, P: edge.Pred, O: edge.To})
		m.pool = append(m.pool, rec)
		rec.removeOp(d)
	}
	return d
}

// TestDifferentialRandomMutations is the acceptance test: on randomized
// mutation sequences over the synthetic generator, Apply must leave the
// engine's Eq identical to a full re-chase after every delta, and the
// reported added/removed diffs must be consistent.
func TestDifferentialRandomMutations(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := gen.DefaultSynthetic()
		cfg.Seed = seed
		w, err := gen.Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(w.Graph, w.Keys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := e.Graph()
		mut := &randomMutator{g: g, set: w.Keys, rng: rand.New(rand.NewSource(seed * 7919))}
		totalAdded, totalRemoved := 0, 0
		prev := append([]eqrel.Pair(nil), e.Pairs()...)

		for round := 0; round < 40; round++ {
			d := mut.next(round)
			if d == nil {
				continue
			}
			added, removed, err := e.Apply(d)
			if err != nil {
				t.Fatalf("seed %d round %d: Apply: %v", seed, round, err)
			}
			totalAdded += len(added)
			totalRemoved += len(removed)
			checkIndexes(t, e)

			full := fullPairs(t, g, w.Keys)
			if !pairsEqual(e.Pairs(), full) {
				t.Fatalf("seed %d round %d: incremental pairs diverge from full re-chase\ninc:  %v\nfull: %v\nstats: %+v",
					seed, round, e.Pairs(), full, e.LastStats())
			}
			// prev + added - removed must equal the new pair set.
			reconstructed := applyDiff(prev, added, removed)
			if !pairsEqual(reconstructed, e.Pairs()) {
				t.Fatalf("seed %d round %d: diff inconsistent: prev+added-removed != pairs", seed, round)
			}
			prev = append(prev[:0], e.Pairs()...)
		}
		if totalAdded == 0 || totalRemoved == 0 {
			t.Fatalf("seed %d: mutation sequence never changed the match set (added %d, removed %d) — test is vacuous",
				seed, totalAdded, totalRemoved)
		}
	}
}

// applyDiff reconstructs a sorted pair list from prev plus a diff.
func applyDiff(prev, added, removed []eqrel.Pair) []eqrel.Pair {
	drop := make(map[eqrel.Pair]bool, len(removed))
	for _, p := range removed {
		drop[p] = true
	}
	out := make([]eqrel.Pair, 0, len(prev)+len(added))
	for _, p := range prev {
		if !drop[p] {
			out = append(out, p)
		}
	}
	out = append(out, added...)
	sortPairList(out)
	return out
}

func sortPairList(ps []eqrel.Pair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && (ps[j].A < ps[j-1].A || (ps[j].A == ps[j-1].A && ps[j].B < ps[j-1].B)); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
