package graph

import (
	"bytes"
	"fmt"
	"testing"
)

// TestDirectoryChurn removes and re-adds the same 100 entities for
// 1 000 rounds, in alternate rounds as two deltas and inside one. Each
// entity has a value of its own name, so an entity and a value share
// every name. After every round each name resolves to its live node,
// and the table holds at most 8 slots per live name: a tombstone's
// slot never matches, and regrowing drops it, so the churn leaves
// 100 000 tombstones behind and none in the table. Every 100 rounds the
// graph goes through the text format and ParseText resolves every name
// again, each entity token twice.
func TestDirectoryChurn(t *testing.T) {
	const ids, rounds = 100, 1000
	name := func(i int) string { return fmt.Sprintf("e%d", i%ids) }
	addAll := func(d *Delta) *Delta {
		for i := range ids {
			d.AddEntity(name(i), "T").AddValueTriple(name(i), "name", name(i))
		}
		for i := range ids {
			d.AddTriple(name(i), "next", name(i+1))
		}
		return d
	}
	removeAll := func(d *Delta) *Delta {
		for i := range ids {
			d.RemoveEntity(name(i))
		}
		return d
	}
	check := func(g *Graph, when string) {
		t.Helper()
		for i := range ids {
			e, ok := g.Entity(name(i))
			if !ok || !g.IsEntity(e) || g.Label(e) != name(i) {
				t.Fatalf("%s: Entity(%q) = %d, %v", when, name(i), e, ok)
			}
			v, ok := g.Value(name(i))
			if !ok || !g.IsValue(v) || g.Label(v) != name(i) {
				t.Fatalf("%s: Value(%q) = %d, %v", when, name(i), v, ok)
			}
			next, _ := g.Entity(name(i + 1))
			pName, _ := g.PredByName("name")
			pNext, _ := g.PredByName("next")
			if !g.HasTriple(e, pName, v) || !g.HasTriple(e, pNext, next) {
				t.Fatalf("%s: %q lost a triple", when, name(i))
			}
		}
		if live := g.NumEntities() + ids; len(g.dir.slots) > 8*live {
			t.Fatalf("%s: %d slots for %d live names", when, len(g.dir.slots), live)
		}
	}
	g := New()
	if _, err := g.ApplyDelta(addAll(&Delta{})); err != nil {
		t.Fatal(err)
	}
	check(g, "loaded")
	for r := range rounds {
		var ds []*Delta
		if r%2 == 0 {
			ds = []*Delta{removeAll(&Delta{}), addAll(&Delta{})}
		} else {
			ds = []*Delta{addAll(removeAll(&Delta{}))}
		}
		for _, d := range ds {
			if res, err := g.ApplyDelta(d); err != nil || res.Empty() {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		when := fmt.Sprintf("round %d", r)
		check(g, when)
		if r%100 == 99 {
			var text bytes.Buffer
			if err := g.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseText(&text)
			if err != nil {
				t.Fatal(err)
			}
			check(parsed, when+", parsed")
		}
	}
	if dead := g.NumNodes() - g.NumEntities() - ids; dead != rounds*ids {
		t.Fatalf("%d tombstones, want %d", dead, rounds*ids)
	}
}
