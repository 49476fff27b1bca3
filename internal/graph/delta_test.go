package graph

import "testing"

func buildSmall(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.MustAddEntity("a", "T")
	b := g.MustAddEntity("b", "T")
	v := g.AddValue("42")
	g.MustAddTriple(a, "knows", b)
	g.MustAddTriple(a, "age", v)
	g.MustAddTriple(b, "age", v)
	return g
}

// removeTriple removes (s, pred, o) through a one-op delta — the only
// way a loaded graph loses a triple — and reports whether it was there.
func removeTriple(t testing.TB, g *Graph, s NodeID, pred string, o NodeID) bool {
	t.Helper()
	d := &Delta{}
	if g.IsValue(o) {
		d.RemoveValueTriple(g.Label(s), pred, g.Label(o))
	} else {
		d.RemoveTriple(g.Label(s), pred, g.Label(o))
	}
	res, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.RemovedTriples) == 1
}

func TestRemoveTriple(t *testing.T) {
	g := buildSmall(t)
	a, _ := g.Entity("a")
	b, _ := g.Entity("b")
	v, _ := g.Value("42")
	p, _ := g.PredByName("knows")

	if !removeTriple(t, g, a, "knows", b) {
		t.Fatal("removal reported absent for an existing triple")
	}
	if g.HasTriple(a, p, b) {
		t.Fatal("triple still present after removal")
	}
	if g.NumTriples() != 2 {
		t.Fatalf("NumTriples = %d, want 2", g.NumTriples())
	}
	if got := len(g.Out(a)); got != 1 {
		t.Fatalf("len(Out(a)) = %d, want 1", got)
	}
	if got := len(g.In(b)); got != 0 {
		t.Fatalf("len(In(b)) = %d, want 0", got)
	}
	// Removing again is a reported no-op.
	if removeTriple(t, g, a, "knows", b) {
		t.Fatal("second removal reported success")
	}
	// Unknown predicate never removes.
	if removeTriple(t, g, a, "nope", v) {
		t.Fatal("removal with unknown predicate reported success")
	}
	// Removal is reversible.
	g.MustAddTriple(a, "knows", b)
	if !g.HasTriple(a, p, b) || g.NumTriples() != 3 {
		t.Fatal("re-add after removal did not restore the triple")
	}
}

func TestApplyDelta(t *testing.T) {
	g := buildSmall(t)
	d := &Delta{}
	d.AddEntity("c", "T").
		AddTriple("c", "knows", "a").
		AddValueTriple("c", "age", "42").
		RemoveTriple("a", "knows", "b").
		RemoveValueTriple("b", "age", "42").
		RemoveValueTriple("b", "age", "no-such-value"). // no-op
		AddTriple("a", "knows", "b").                   // re-add of a removal in the same delta
		AddValueTriple("a", "age", "42")                // duplicate, no-op
	res, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AddedEntities) != 1 {
		t.Fatalf("AddedEntities = %v, want 1 entry", res.AddedEntities)
	}
	// The remove + re-add of (a, knows, b) coalesces to a no-op, so only
	// c's two new triples count as added and only (b, age, 42) as
	// removed.
	if len(res.AddedTriples) != 2 {
		t.Fatalf("AddedTriples = %v, want 2 entries", res.AddedTriples)
	}
	if len(res.RemovedTriples) != 1 {
		t.Fatalf("RemovedTriples = %v, want 1 entry", res.RemovedTriples)
	}
	if g.NumTriples() != 4 {
		t.Fatalf("NumTriples = %d, want 4", g.NumTriples())
	}
	c, ok := g.Entity("c")
	if !ok {
		t.Fatal("entity c missing after delta")
	}
	a, _ := g.Entity("a")
	b, _ := g.Entity("b")
	v, _ := g.Value("42")
	knows, _ := g.PredByName("knows")
	age, _ := g.PredByName("age")
	for _, want := range []struct {
		s NodeID
		p PredID
		o NodeID
	}{{c, knows, a}, {c, age, v}, {a, knows, b}, {a, age, v}} {
		if !g.HasTriple(want.s, want.p, want.o) {
			t.Fatalf("triple (%d,%d,%d) missing after delta", want.s, want.p, want.o)
		}
	}
	if g.HasTriple(b, age, v) {
		t.Fatal("removed triple (b, age, 42) still present")
	}
}

func TestApplyDeltaAtomic(t *testing.T) {
	g := buildSmall(t)
	trips := g.NumTriples()

	// A delta with a bad op at the end must leave the graph untouched.
	bad := &Delta{}
	bad.AddEntity("c", "T").
		AddTriple("c", "knows", "a").
		AddTriple("ghost", "knows", "a")
	if _, err := g.ApplyDelta(bad); err == nil {
		t.Fatal("delta referencing unknown entity did not error")
	}
	if g.NumTriples() != trips {
		t.Fatalf("failed delta mutated the graph: %d triples, want %d", g.NumTriples(), trips)
	}
	if _, ok := g.Entity("c"); ok {
		t.Fatal("failed delta created entity c")
	}

	// Type conflicts are rejected, including against entities pending in
	// the same delta.
	conflict := &Delta{}
	conflict.AddEntity("a", "U")
	if _, err := g.ApplyDelta(conflict); err == nil {
		t.Fatal("type redeclaration did not error")
	}
	conflict2 := &Delta{}
	conflict2.AddEntity("n", "T").AddEntity("n", "U")
	if _, err := g.ApplyDelta(conflict2); err == nil {
		t.Fatal("pending type redeclaration did not error")
	}

	// Forward references within a delta work: triple before its entity
	// op fails, after succeeds.
	forward := &Delta{}
	forward.AddTriple("d", "knows", "a").AddEntity("d", "T")
	if _, err := g.ApplyDelta(forward); err == nil {
		t.Fatal("triple referencing a later-added entity did not error")
	}
	ordered := &Delta{}
	ordered.AddEntity("d", "T").AddTriple("d", "knows", "a")
	if _, err := g.ApplyDelta(ordered); err != nil {
		t.Fatalf("ordered delta failed: %v", err)
	}
}

func TestTriples(t *testing.T) {
	g := buildSmall(t)
	ts := g.Triples()
	if len(ts) != g.NumTriples() {
		t.Fatalf("Triples() returned %d, want %d", len(ts), g.NumTriples())
	}
	for _, tr := range ts {
		if !g.HasTriple(tr.S, tr.P, tr.O) {
			t.Fatalf("Triples() returned absent triple %+v", tr)
		}
	}
}
