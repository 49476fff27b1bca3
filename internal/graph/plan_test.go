package graph

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"graphkeys/internal/obs"
)

// capture applies the delta with a log hook and returns the normalized
// ops handed to it (nil when the hook was never invoked — the delta
// coalesced to a no-op).
func capture(t *testing.T, g *Graph, d *Delta) (*DeltaResult, []DeltaOp) {
	t.Helper()
	var norm []DeltaOp
	called := false
	res, err := g.ApplyDeltaLogged(d, func(ops []DeltaOp) (DeltaCommit, error) {
		called = true
		norm = append([]DeltaOp(nil), ops...)
		return nil, nil
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
			_, err := g.ApplyDeltaLogged(tc.d, func([]DeltaOp) (DeltaCommit, error) { logged = true; return nil, nil })
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
	if _, err := g.ApplyDeltaLogged(d, func([]DeltaOp) (DeltaCommit, error) { return nil, fmt.Errorf("disk full") }); err == nil {
		t.Fatal("log error did not abort the delta")
	}
	// The same contract holds when the failure surfaces at commit time
	// (a failed group fsync): the delta aborts before any mutation.
	if _, err := g.ApplyDeltaLogged(d, func([]DeltaOp) (DeltaCommit, error) {
		return func() error { return fmt.Errorf("fsync failed") }, nil
	}); err == nil {
		t.Fatal("commit error did not abort the delta")
	}
	var after bytes.Buffer
	if err := g.WriteText(&after); err != nil {
		t.Fatal(err)
	}
	// The commit-time abort may leave reserved dead slots behind (holes
	// in the dense ID space — see reserveNode), so NumNodes can grow;
	// what the contract guarantees is that nothing observable at name
	// level changed: no entity, no value, no triple, byte-identical
	// text.
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("aborted delta mutated the graph")
	}
	if g.NumNodes() < nodes {
		t.Fatal("aborted delta shrank the node space")
	}
	if _, ok := g.Entity("c"); ok {
		t.Fatal("aborted delta created its entity")
	}
	if _, ok := g.Value("9"); ok {
		t.Fatal("aborted delta published its value literal")
	}
}

// heldFlight registers a flight over mask by hand, as if an execution
// were in progress there, and returns its token.
func heldFlight(g *Graph, mask uint32) int64 {
	g.pl.mu.Lock()
	defer g.pl.mu.Unlock()
	return g.registerFlight(mask)
}

// awaitWaiters spins until n planners are queued in admission. A
// planner leaves the queue only by being admitted, so a reading of n
// proves all n are blocked.
func awaitWaiters(g *Graph, n int) {
	for {
		g.pl.mu.Lock()
		queued := len(g.pl.waitQ)
		g.pl.mu.Unlock()
		if queued >= n {
			return
		}
		runtime.Gosched()
	}
}

// TestAdmissionFIFO pins the starvation guarantee: once a writer has
// started waiting, later-arriving writers queue behind it — even ones
// whose own footprints are clear — so a wide-footprint delta is
// admitted before traffic that arrived after it. The order is recorded
// where the contract defines it: in the log hook, which the write path
// calls under the plan mutex in plan order. (Completion order is not
// it: once admitted, the two deltas execute concurrently on disjoint
// shards.)
func TestAdmissionFIFO(t *testing.T) {
	g := New()
	a := g.MustAddEntity("a", "T")
	g.MustAddEntity("b", "T") // different shard from a (IDs 0 and 1)
	tok := heldFlight(g, shardBit(shardIndex(a)))

	var order []string
	done := make(chan struct{}, 2)
	apply := func(name string, d *Delta) {
		_, err := g.ApplyDeltaLogged(d, func([]DeltaOp) (DeltaCommit, error) {
			order = append(order, name)
			return nil, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}

	// First writer conflicts with the held flight and must wait.
	go apply("conflicting", (&Delta{}).AddValueTriple("a", "p", "x"))
	awaitWaiters(g, 1)
	// Second writer touches only b's shard — clear footprint, but it
	// arrived after a waiter and must queue behind it.
	go apply("disjoint", (&Delta{}).AddValueTriple("b", "p", "y"))
	awaitWaiters(g, 2)

	g.completeFlight(tok)
	<-done
	<-done
	if len(order) != 2 || order[0] != "conflicting" || order[1] != "disjoint" {
		t.Fatalf("plan order = %v, want [conflicting disjoint]", order)
	}
}

// TestExclusivePlanMatchesOptimistic drives the exclusive plan — what a
// delta falls back to after maxReplans misses — directly: it admits
// the full shard mask, so it waits for a flight on a shard it never
// touches and, being queued, holds back a later delta that is disjoint
// from both; and it is the same plan, so its DeltaResult and
// normalized record are the optimistic plan's for the same delta.
func TestExclusivePlanMatchesOptimistic(t *testing.T) {
	build := func() *Graph {
		g := buildSmall(t) // a=0, b=1, "42"=2
		c := g.MustAddEntity("c", "T")
		d := g.MustAddEntity("d", "T")
		g.MustAddTriple(c, "knows", d)
		return g
	}
	// Expansion, allocation of an entity and two literals, and ops that
	// coalesce away; touches a, b, "42" and fresh slots only.
	wide := func() *Delta {
		return (&Delta{}).
			RemoveEntity("b").
			AddEntity("e", "T").
			AddValueTriple("e", "age", "43").
			AddTriple("e", "knows", "a").
			RemoveValueTriple("a", "age", "42").
			AddValueTriple("a", "age", "42").
			AddValueTriple("a", "tag", "x").
			AddValueTriple("a", "tag", "x")
	}
	narrow := func() *Delta { return (&Delta{}).RemoveTriple("c", "knows", "d") }

	ref := build()
	wantRes, wantNorm := capture(t, ref, wide())
	capture(t, ref, narrow())

	g := build()
	reg := obs.NewRegistry()
	g.RegisterObs(reg)
	tok := heldFlight(g, shardBit(20)) // no node of g lives there

	var order []string
	var gotNorm []DeltaOp
	var gotRes *DeltaResult
	done := make(chan struct{}, 2)
	go func() {
		var err error
		gotRes, err = g.applyExclusive(wide(), func(norm []DeltaOp) (DeltaCommit, error) {
			order = append(order, "exclusive")
			gotNorm = append([]DeltaOp(nil), norm...)
			return nil, nil
		}, g.ob.Load())
		if err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}()
	awaitWaiters(g, 1)
	go func() {
		_, err := g.ApplyDeltaLogged(narrow(), func([]DeltaOp) (DeltaCommit, error) {
			order = append(order, "disjoint")
			return nil, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}()
	awaitWaiters(g, 2)

	g.completeFlight(tok)
	<-done
	<-done
	if len(order) != 2 || order[0] != "exclusive" || order[1] != "disjoint" {
		t.Fatalf("plan order = %v, want [exclusive disjoint]", order)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("exclusive result %+v, optimistic %+v", gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotNorm, wantNorm) {
		t.Fatalf("exclusive record %+v, optimistic %+v", gotNorm, wantNorm)
	}
	if !bytes.Equal(graphText(t, g), graphText(t, ref)) || g.NumNodes() != ref.NumNodes() {
		t.Fatal("graph after an exclusive plan diverged from the optimistic one")
	}
	c := reg.Snapshot().Counters
	if c["graph.plan_fallbacks"] != 1 || c["graph.plans_optimistic"] != 1 || c["graph.deltas"] != 2 {
		t.Fatalf("plan_fallbacks=%d plans_optimistic=%d deltas=%d, want 1 1 2",
			c["graph.plan_fallbacks"], c["graph.plans_optimistic"], c["graph.deltas"])
	}
}

// TestEntitiesOfTypeAscending pins the order candidate generation
// streams as is: EntitiesOfType is ascending by NodeID even when
// entities are lowered out of dense-ID order — here a delta whose
// commit wait outlasts a whole later delta, as under group commit —
// and stays so across removals.
func TestEntitiesOfTypeAscending(t *testing.T) {
	g := New()
	g.MustAddEntity("e0", "T")
	g.MustAddEntity("u0", "U")
	add := func(id string, during func()) {
		t.Helper()
		_, err := g.ApplyDeltaLogged((&Delta{}).AddEntity(id, "T").AddEntity(id+"u", "U"), func([]DeltaOp) (DeltaCommit, error) {
			return func() error { during(); return nil }, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each delta reserves its IDs, then lowers only after the deltas
	// nested inside its commit wait have lowered theirs: e3, e2, e1
	// reach the directory in that order, the highest ID first.
	add("e1", func() { add("e2", func() { add("e3", func() {}) }) })
	tid, _ := g.TypeByName("T")
	check := func(want int) {
		t.Helper()
		ents := g.EntitiesOfType(tid)
		if len(ents) != want || !slices.IsSorted(ents) {
			t.Fatalf("EntitiesOfType = %v, want %d entities ascending", ents, want)
		}
	}
	check(4)
	e1, _ := g.Entity("e1")
	e3, _ := g.Entity("e3")
	if e1 > e3 {
		t.Fatalf("fixture lowered in ID order (e1 = %d, e3 = %d): nothing was out of order", e1, e3)
	}
	for i, id := range []string{"e2", "e0", "e3"} {
		if _, err := g.ApplyDelta((&Delta{}).RemoveEntity(id)); err != nil {
			t.Fatal(err)
		}
		check(3 - i)
	}
	add("e4", func() {})
	check(2)
}
