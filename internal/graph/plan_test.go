package graph

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

func graphText(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// capture applies the delta with a log hook and returns the normalized
// ops handed to it (nil when the hook was never invoked — the delta
// coalesced to a no-op).
func capture(t *testing.T, g *Graph, d *Delta) (*DeltaResult, []DeltaOp) {
	t.Helper()
	var norm []DeltaOp
	called := false
	res, err := g.ApplyDeltaLogged(d, func(ops []DeltaOp) error {
		called = true
		norm = append([]DeltaOp(nil), ops...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		return res, nil
	}
	return res, norm
}

func TestCoalesceDuplicateAdds(t *testing.T) {
	g := buildSmall(t)
	d := (&Delta{}).
		AddValueTriple("a", "tag", "x").
		AddValueTriple("a", "tag", "x").
		AddValueTriple("a", "tag", "x")
	res, norm := capture(t, g, d)
	if len(norm) != 1 {
		t.Fatalf("normalized ops = %v, want exactly 1", norm)
	}
	if len(res.AddedTriples) != 1 {
		t.Fatalf("AddedTriples = %v, want 1", res.AddedTriples)
	}
}

func TestCoalesceAddThenRemoveIsNoop(t *testing.T) {
	g := buildSmall(t)
	before := g.NumNodes()
	d := (&Delta{}).
		AddValueTriple("a", "tag", "fresh-literal").
		RemoveValueTriple("a", "tag", "fresh-literal")
	res, norm := capture(t, g, d)
	if norm != nil {
		t.Fatalf("no-op delta logged %v", norm)
	}
	if !res.Empty() {
		t.Fatalf("no-op delta reported changes: %+v", res)
	}
	// The canceled add never interned its value literal.
	if g.NumNodes() != before {
		t.Fatalf("no-op delta allocated nodes: %d -> %d", before, g.NumNodes())
	}
	if _, ok := g.Value("fresh-literal"); ok {
		t.Fatal("canceled add interned its value")
	}
}

func TestCoalesceRemoveThenReAddIsNoop(t *testing.T) {
	g := buildSmall(t)
	var before bytes.Buffer
	if err := g.WriteText(&before); err != nil {
		t.Fatal(err)
	}
	d := (&Delta{}).
		RemoveTriple("a", "knows", "b").
		AddTriple("a", "knows", "b")
	res, norm := capture(t, g, d)
	if norm != nil || !res.Empty() {
		t.Fatalf("remove+re-add of an existing triple reported changes: norm=%v res=%+v", norm, res)
	}
	var after bytes.Buffer
	if err := g.WriteText(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("graph changed across a net no-op delta")
	}
}

func TestCoalesceEntityCreatedAndRemoved(t *testing.T) {
	g := buildSmall(t)
	before := g.NumNodes()
	d := (&Delta{}).
		AddEntity("ghost", "T").
		AddValueTriple("ghost", "tag", "gx").
		AddTriple("ghost", "knows", "a").
		RemoveEntity("ghost")
	res, norm := capture(t, g, d)
	if norm != nil || !res.Empty() {
		t.Fatalf("created+removed entity reported changes: norm=%v res=%+v", norm, res)
	}
	if g.NumNodes() != before {
		t.Fatalf("canceled incarnation allocated nodes: %d -> %d", before, g.NumNodes())
	}
	if _, ok := g.Entity("ghost"); ok {
		t.Fatal("canceled entity resolvable")
	}
}

func TestCoalesceRemoveEntityThenReAdd(t *testing.T) {
	g := buildSmall(t)
	d := (&Delta{}).
		RemoveEntity("a").
		AddEntity("a", "T").
		AddValueTriple("a", "age", "43")
	res, norm := capture(t, g, d)
	// Normalized: RemoveEntity, AddEntity, AddValueTriple — in order.
	if len(norm) != 3 || norm[0].Kind != OpRemoveEntity || norm[1].Kind != OpAddEntity || norm[2].Kind != OpAddTriple {
		t.Fatalf("normalized ops = %+v", norm)
	}
	if len(res.RemovedEntities) != 1 || len(res.AddedEntities) != 1 {
		t.Fatalf("result %+v", res)
	}
	n, ok := g.Entity("a")
	if !ok {
		t.Fatal("re-added entity not resolvable")
	}
	if n == res.RemovedEntities[0] {
		t.Fatal("tombstoned NodeID reused")
	}
}

// TestApplyDeltaRejectedLeavesGraphUntouched is the atomicity
// regression test, one case per rejection the planner can report. Each
// failing op sits behind ops that would allocate nodes and intern
// names — one even behind a prefix that removes an entity and re-adds
// it — and must leave the graph byte-identical, with no node
// allocated, no name interned and nothing logged.
func TestApplyDeltaRejectedLeavesGraphUntouched(t *testing.T) {
	alloc := func() *Delta {
		return (&Delta{}).AddEntity("fresh", "V").AddValueTriple("fresh", "brandnewpred", "brandnewvalue")
	}
	cases := []struct {
		name string
		d    *Delta
		want string
	}{
		{"type redeclared against the graph", alloc().AddEntity("a", "U"),
			`graph: delta op 2: entity "a" redeclared with type "U" (was "T")`},
		{"type redeclared inside the delta", alloc().AddEntity("fresh", "T"),
			`graph: delta op 2: entity "fresh" redeclared with type "T" (was "V")`},
		{"unknown subject", alloc().AddTriple("ghost", "knows", "a"),
			`graph: delta op 2: unknown subject entity "ghost"`},
		{"unknown object", (&Delta{}).RemoveEntity("a").AddEntity("a", "U").
			AddValueTriple("a", "brandnewpred", "brandnewvalue").
			AddEntity("fresh", "T").AddTriple("fresh", "knows", "no-such-entity"),
			`graph: delta op 4: unknown object entity "no-such-entity"`},
		{"subject removed earlier", alloc().RemoveEntity("a").AddValueTriple("a", "age", "43"),
			`graph: delta op 3: unknown subject entity "a"`},
		{"empty predicate", alloc().AddValueTriple("fresh", "", "brandnewvalue"),
			`graph: delta op 2: empty predicate`},
		{"unknown op kind", NewDeltaOps(append(alloc().Ops(), DeltaOp{Kind: 99})),
			`graph: delta op 2: unknown kind 99`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildSmall(t)
			before := graphText(t, g)
			nodes, ents, preds, types, trips := g.NumNodes(), g.NumEntities(), g.NumPreds(), g.NumTypes(), g.NumTriples()

			logged := false
			_, err := g.ApplyDeltaLogged(tc.d, func([]DeltaOp) error { logged = true; return nil })
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v, want %s", err, tc.want)
			}
			if logged {
				t.Fatal("rejected delta reached the log")
			}
			if after := graphText(t, g); !bytes.Equal(before, after) {
				t.Fatalf("rejected delta changed the graph:\nbefore:\n%s\nafter:\n%s", before, after)
			}
			if g.NumNodes() != nodes || g.NumEntities() != ents || g.NumPreds() != preds || g.NumTypes() != types || g.NumTriples() != trips {
				t.Fatalf("rejected delta leaked state: nodes %d->%d ents %d->%d preds %d->%d types %d->%d triples %d->%d",
					nodes, g.NumNodes(), ents, g.NumEntities(), preds, g.NumPreds(), types, g.NumTypes(), trips, g.NumTriples())
			}
			if _, ok := g.Value("brandnewvalue"); ok {
				t.Fatal("rejected delta interned a value")
			}
			if a, ok := g.Entity("a"); !ok {
				t.Fatal("rejected delta removed entity a")
			} else if g.TypeName(g.TypeOf(a)) != "T" {
				t.Fatal("rejected delta changed a's type")
			}
		})
	}
}

// TestApplyDeltaLogAbort pins the write-ahead contract: a log hook
// error aborts the delta before any mutation.
func TestApplyDeltaLogAbort(t *testing.T) {
	g := buildSmall(t)
	var before bytes.Buffer
	if err := g.WriteText(&before); err != nil {
		t.Fatal(err)
	}
	nodes := g.NumNodes()
	d := (&Delta{}).AddEntity("c", "T").AddValueTriple("c", "age", "9")
	if _, err := g.ApplyDeltaLogged(d, func([]DeltaOp) error { return fmt.Errorf("disk full") }); err == nil {
		t.Fatal("log error did not abort the delta")
	}
	var after bytes.Buffer
	if err := g.WriteText(&after); err != nil {
		t.Fatal(err)
	}
	// Nodes are allocated only after the hook accepted the record, so
	// the abort leaves nothing behind: no node slot, no entity, no
	// value, no triple, byte-identical text.
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("aborted delta mutated the graph")
	}
	if g.NumNodes() != nodes {
		t.Fatalf("aborted delta changed the node space: %d -> %d", nodes, g.NumNodes())
	}
	if _, ok := g.Entity("c"); ok {
		t.Fatal("aborted delta created its entity")
	}
	if _, ok := g.Value("9"); ok {
		t.Fatal("aborted delta published its value literal")
	}
}

// TestEntitiesOfTypeAscending pins the order candidate generation
// streams as is: EntitiesOfType is ascending by NodeID as entities are
// added by the loader and by deltas, including a delta that removes an
// entity and re-adds its ID (a fresh, higher node) and one whose log
// hook fails, and it stays so across removals.
func TestEntitiesOfTypeAscending(t *testing.T) {
	g := New()
	g.MustAddEntity("e0", "T")
	g.MustAddEntity("u0", "U")
	add := func(d *Delta) {
		t.Helper()
		if _, err := g.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"e1", "e2", "e3"} {
		add((&Delta{}).AddEntity(id, "T").AddEntity(id+"u", "U"))
	}
	tid, _ := g.TypeByName("T")
	check := func(want int) {
		t.Helper()
		ents := g.EntitiesOfType(tid)
		if len(ents) != want || !slices.IsSorted(ents) {
			t.Fatalf("EntitiesOfType = %v, want %d entities ascending", ents, want)
		}
	}
	check(4)
	old, _ := g.Entity("e1")
	add((&Delta{}).RemoveEntity("e1").AddEntity("e1", "T"))
	if n, _ := g.Entity("e1"); n <= old {
		t.Fatalf("re-added e1 is node %d, not above its old node %d", n, old)
	}
	check(4)
	if _, err := g.ApplyDeltaLogged((&Delta{}).AddEntity("lost", "T"), func([]DeltaOp) error {
		return fmt.Errorf("disk full")
	}); err == nil {
		t.Fatal("log error did not abort the delta")
	}
	for i, id := range []string{"e2", "e0", "e3"} {
		add((&Delta{}).RemoveEntity(id))
		check(3 - i)
	}
	add((&Delta{}).AddEntity("e4", "T"))
	check(2)
}

// TestPlanAllocs pins the objects one logged delta allocates on a
// 1 024-entity graph: a one-op value-triple remove and its re-add (what
// a replayed flip record costs), and a 64-op remove and its re-add. The
// planner keeps its per-op decisions in one slice, not in maps keyed by
// op index; a map of 64 keys allocates its table, which the 64-op pins
// catch. Lowering resolves each predicate without a memo.
func TestPlanAllocs(t *testing.T) {
	const n, k = 1024, 64
	g := New()
	rem, add := make([]*Delta, n), make([]*Delta, n)
	remK, addK := make([]*Delta, n/k), make([]*Delta, n/k)
	for i := range n {
		id, v := fmt.Sprintf("e%d", i), fmt.Sprintf("v%d", i)
		g.MustAddTriple(g.MustAddEntity(id, "T"), "name", g.AddValue(v))
		rem[i], add[i] = (&Delta{}).RemoveValueTriple(id, "name", v), (&Delta{}).AddValueTriple(id, "name", v)
		if i%k == 0 {
			remK[i/k], addK[i/k] = &Delta{}, &Delta{}
		}
		remK[i/k].RemoveValueTriple(id, "name", v)
		addK[i/k].AddValueTriple(id, "name", v)
	}
	hook := func([]DeltaOp) error { return nil }
	// apply applies every delta of ds in turn, one a run.
	apply := func(ds []*Delta) float64 {
		next := 0
		return testing.AllocsPerRun(len(ds)-1, func() {
			if r, err := g.ApplyDeltaLogged(ds[next], hook); err != nil || r.Empty() {
				t.Fatalf("delta %d: %v, result %+v", next, err, r)
			}
			next++
		})
	}
	for _, c := range []struct {
		name  string
		ds    []*Delta
		limit float64
	}{
		{"one-op remove", rem, 6}, {"one-op re-add", add, 9},
		{"64-op remove", remK, 114}, {"64-op re-add", addK, 306},
	} {
		got := apply(c.ds)
		t.Logf("%s: %.0f objects (limit %.0f)", c.name, got, c.limit)
		if got > c.limit {
			t.Errorf("%s allocates %.0f objects, want at most %.0f", c.name, got, c.limit)
		}
	}
}
