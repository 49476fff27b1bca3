package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestRemoveTripleDoesNotAliasEdgeSlices is the regression test for the
// removeEdge aliasing bug: compacting with append(edges[:i],
// edges[i+1:]...) mutated the backing array of the graph-owned slices
// previously returned by Out/In, so a caller iterating edges across a
// removal saw shifted and duplicated edges. Removal — a one-op delta
// through removeTriple, the path that serves it — must leave
// previously handed-out slices untouched.
func TestRemoveTripleDoesNotAliasEdgeSlices(t *testing.T) {
	g := New()
	s := g.MustAddEntity("s", "T")
	a := g.MustAddEntity("a", "T")
	b := g.MustAddEntity("b", "T")
	c := g.MustAddEntity("c", "T")
	g.MustAddTriple(s, "p", a)
	g.MustAddTriple(s, "p", b)
	g.MustAddTriple(s, "p", c)
	g.MustAddTriple(a, "q", s)
	g.MustAddTriple(b, "q", s)
	g.MustAddTriple(c, "q", s)

	out := g.Out(s) // caller-held view, taken before the removal
	in := g.In(s)
	wantOut := append([]Edge(nil), out...)
	wantIn := append([]Edge(nil), in...)

	// Remove the first edge: in-place compaction would shift every
	// element of the held views left and duplicate the tail.
	if !removeTriple(t, g, s, "p", a) {
		t.Fatal("removal of (s, p, a) reported absent")
	}
	if !removeTriple(t, g, a, "q", s) {
		t.Fatal("removal of (a, q, s) reported absent")
	}

	for i := range wantOut {
		if out[i] != wantOut[i] {
			t.Errorf("held Out slice mutated at %d: got %+v, want %+v", i, out[i], wantOut[i])
		}
	}
	for i := range wantIn {
		if in[i] != wantIn[i] {
			t.Errorf("held In slice mutated at %d: got %+v, want %+v", i, in[i], wantIn[i])
		}
	}

	// The graph's own view reflects the removal, order preserved.
	cur := g.Out(s)
	if len(cur) != 2 || cur[0].To != b || cur[1].To != c {
		t.Errorf("Out after removal = %+v, want edges to b then c", cur)
	}
}

// TestRemoveTripleIterationSafe pins the caller-visible symptom: code
// iterating a pre-removal edge slice while removing triples must visit
// exactly the pre-removal edges, each once.
func TestRemoveTripleIterationSafe(t *testing.T) {
	g := New()
	s := g.MustAddEntity("s", "T")
	var objs []NodeID
	for i := 0; i < 8; i++ {
		o := g.MustAddEntity(fmt.Sprintf("o%d", i), "T")
		objs = append(objs, o)
		g.MustAddTriple(s, "p", o)
	}
	seen := make(map[NodeID]int)
	for _, e := range g.Out(s) {
		seen[e.To]++
		removeTriple(t, g, s, g.PredName(e.Pred), e.To)
	}
	for _, o := range objs {
		if seen[o] != 1 {
			t.Errorf("object %d visited %d times, want 1", o, seen[o])
		}
	}
	if g.NumTriples() != 0 {
		t.Errorf("NumTriples = %d after removing every edge, want 0", g.NumTriples())
	}
}

// TestValueSubjectsNotAliased mirrors the edge-slice regression for the
// value index's posting lists.
func TestValueSubjectsNotAliased(t *testing.T) {
	g := New()
	v := g.AddValue("x")
	var subs []NodeID
	for i := 0; i < 4; i++ {
		s := g.MustAddEntity(fmt.Sprintf("e%d", i), "T")
		subs = append(subs, s)
		g.MustAddTriple(s, "name", v)
	}
	p, ok := g.PredByName("name")
	if !ok {
		t.Fatal("predicate name not interned")
	}
	held := g.ValueSubjects(p, v)
	want := append([]NodeID(nil), held...)
	removeTriple(t, g, subs[0], "name", v)
	for i := range want {
		if held[i] != want[i] {
			t.Errorf("held posting list mutated at %d: got %d, want %d", i, held[i], want[i])
		}
	}
	if got := g.ValueSubjects(p, v); len(got) != 3 || got[0] != subs[1] {
		t.Errorf("posting list after removal = %v, want %v", got, subs[1:])
	}
}

// TestValueIndexMaintained checks the index invariant — for every
// (p, v) with v a value node, ValueSubjects(p, v) is exactly the set
// {s : (s, p, v) ∈ G} — under a random add/remove workload, including
// through ApplyDelta.
func TestValueIndexMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New()
	const nEnt, nVal, nPred = 12, 6, 3
	var ents []NodeID
	for i := 0; i < nEnt; i++ {
		ents = append(ents, g.MustAddEntity(fmt.Sprintf("e%d", i), "T"))
	}
	var vals []string
	for i := 0; i < nVal; i++ {
		vals = append(vals, fmt.Sprintf("v%d", i))
	}
	preds := []string{"p0", "p1", "p2"}

	verify := func() {
		t.Helper()
		// Recompute the index from the triples and compare both ways.
		want := make(map[string]map[NodeID]bool)
		g.EachTriple(func(s NodeID, p PredID, o NodeID) {
			if !g.IsValue(o) {
				return
			}
			k := fmt.Sprintf("%d/%d", p, o)
			if want[k] == nil {
				want[k] = make(map[NodeID]bool)
			}
			want[k][s] = true
		})
		got := 0
		g.EachValuePosting(func(p PredID, v NodeID, subjects []NodeID) {
			got++
			k := fmt.Sprintf("%d/%d", p, v)
			if len(subjects) != len(want[k]) {
				t.Fatalf("posting (%d,%d): %d subjects, want %d", p, v, len(subjects), len(want[k]))
			}
			for _, s := range subjects {
				if !want[k][s] {
					t.Fatalf("posting (%d,%d) contains %d, not in graph", p, v, s)
				}
			}
		})
		if got != len(want) {
			t.Fatalf("index has %d postings, graph has %d distinct (p,v)", got, len(want))
		}
	}

	for step := 0; step < 300; step++ {
		s := ents[rng.Intn(nEnt)]
		pred := preds[rng.Intn(nPred)]
		lit := vals[rng.Intn(nVal)]
		if rng.Intn(2) == 0 {
			g.MustAddTriple(s, pred, g.AddValue(lit))
		} else {
			removeTriple(t, g, s, pred, g.AddValue(lit))
		}
		if step%37 == 0 {
			verify()
		}
	}
	// Exercise the delta path too.
	d := new(Delta).
		AddValueTriple("e0", "p0", "fresh").
		AddValueTriple("e1", "p0", "fresh").
		RemoveValueTriple("e0", "p0", "fresh")
	if _, err := g.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	verify()
	v, _ := g.Value("fresh")
	p, _ := g.PredByName("p0")
	if got := g.ValueSubjects(p, v); len(got) != 1 || g.Label(got[0]) != "e1" {
		t.Errorf("ValueSubjects(p0, fresh) = %v, want [e1]", got)
	}
}

// TestLoadedGraphKeepsSnapshotContract holds a graph ParseText laid out
// to the handed-out-snapshot contract. The loader cuts every node's
// edge lists out of one array and every posting list out of another,
// so a list whose capacity ran past its length would let an append
// write its neighbour's elements. Here neighbouring node IDs all have
// out-edges, in-edges and postings, and one delta adds a triple at
// every node and removes one: every slice held before it must keep its
// contents, and the graph must come out as the adders' graph does
// under the same delta.
func TestLoadedGraphKeepsSnapshotContract(t *testing.T) {
	const k = 8
	ent := func(i int) string { return fmt.Sprintf("e%d", i%k) }
	var src strings.Builder
	for i := range k {
		// e_i is node 2i and v_i node 2i+1; (name, v_i) holds e_i, e_i+1.
		fmt.Fprintf(&src, "%s:T\tname\t\"v%d\"\n", ent(i), i)
		fmt.Fprintf(&src, "%s:T\tnext\t%s:T\n", ent(i), ent(i+1))
		fmt.Fprintf(&src, "%s:T\tname\t\"v%d\"\n", ent(i+1), i)
	}
	g, err := ParseText(strings.NewReader(src.String()))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refParseText(strings.NewReader(src.String()))
	if err != nil {
		t.Fatal(err)
	}

	type heldList struct {
		what       string
		edges, was []Edge
		subj, had  []NodeID
	}
	var held []heldList
	for i := range g.NumNodes() {
		n := NodeID(i)
		held = append(held,
			heldList{what: fmt.Sprintf("Out(%d)", n), edges: g.Out(n), was: slices.Clone(g.Out(n))},
			heldList{what: fmt.Sprintf("In(%d)", n), edges: g.In(n), was: slices.Clone(g.In(n))})
	}
	g.EachValuePosting(func(p PredID, v NodeID, subjects []NodeID) {
		held = append(held, heldList{what: fmt.Sprintf("ValueSubjects(%d, %d)", p, v), subj: subjects, had: slices.Clone(subjects)})
	})

	d := &Delta{}
	for i := range k {
		// A value gains a subject at both ends of its posting list
		// (e_i-2 sorts first for i >= 2, last for i < 2).
		d.AddValueTriple(ent(i), "name", fmt.Sprintf("v%d", (i+2)%k))
		d.AddTriple(ent(i), "back", ent(i+k-1))
		d.RemoveTriple(ent(i), "next", ent(i+1))
	}
	for _, h := range []*Graph{g, ref} {
		if _, err := h.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range held {
		if !slices.Equal(h.edges, h.was) || !slices.Equal(h.subj, h.had) {
			t.Errorf("held %s changed under a delta", h.what)
		}
	}
	if err := sameGraph(g, ref); err != nil {
		t.Errorf("loaded graph after the delta differs from the adders' graph: %v", err)
	}
}
