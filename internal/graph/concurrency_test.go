package graph

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// logOrder is a DeltaLog capturing normalized records in application
// order. It takes no lock of its own: the hook runs under the writer
// mutex, and -race reports concurrent calls.
type logOrder struct {
	records [][]DeltaOp
}

func (lo *logOrder) log(ops []DeltaOp) error {
	lo.records = append(lo.records, append([]DeltaOp(nil), ops...))
	return nil
}

// TestConcurrentAllocatingWritersEquivalence runs N concurrent writers
// that each allocate entities and value literals under distinct names
// and checks the result is byte-identical to applying the logged
// records serially, in log order, to a fresh graph, and name-identical
// to one writer applying the deltas.
func TestConcurrentAllocatingWritersEquivalence(t *testing.T) {
	const writers, deltas = 8, 24
	delta := func(w, j int) *Delta {
		id := fmt.Sprintf("w%d-e%d", w, j)
		d := (&Delta{}).
			AddEntity(id, "T").
			AddValueTriple(id, "score", fmt.Sprintf("w%d-v%d", w, j))
		if j > 0 {
			d.AddTriple(id, "follows", fmt.Sprintf("w%d-e%d", w, j-1))
		}
		return d
	}
	g := New()
	lo := &logOrder{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < deltas; j++ {
				if _, err := g.ApplyDeltaLogged(delta(w, j), lo.log); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := len(lo.records), writers*deltas; got != want {
		t.Fatalf("logged %d records, want %d", got, want)
	}
	// Serial replay of the log: allocation order is log order, so even
	// the dense node IDs must agree, not just the name-level text.
	g2 := New()
	for _, ops := range lo.records {
		if _, err := g2.ApplyDelta(NewDeltaOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(graphText(t, g), graphText(t, g2)) {
		t.Fatal("concurrent allocating writers diverged from serial log replay")
	}
	if g.NumNodes() != g2.NumNodes() {
		t.Fatalf("node space diverged: concurrent %d, serial %d", g.NumNodes(), g2.NumNodes())
	}
	for w := 0; w < writers; w++ {
		for j := 0; j < deltas; j++ {
			id := fmt.Sprintf("w%d-e%d", w, j)
			n1, ok1 := g.Entity(id)
			n2, ok2 := g2.Entity(id)
			if !ok1 || !ok2 || n1 != n2 {
				t.Fatalf("entity %q: concurrent (%d,%v) vs serial (%d,%v)", id, n1, ok1, n2, ok2)
			}
		}
	}
	// One writer applying the deltas themselves (not the logged
	// records) reaches the same graph by name; its dense IDs follow its
	// own application order, so only the text is compared.
	g1 := New()
	for w := 0; w < writers; w++ {
		for j := 0; j < deltas; j++ {
			if _, err := g1.ApplyDelta(delta(w, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(graphText(t, g), graphText(t, g1)) {
		t.Fatal("concurrent allocating writers diverged from one writer applying the same deltas")
	}
}

// TestPostingListsSorted asserts the value-index invariant behind the
// merge-join candidate generation: every posting list is sorted by
// NodeID, across interleaved adds and removes.
func TestPostingListsSorted(t *testing.T) {
	g := New()
	// Insert entities so their IDs interleave with value nodes, then
	// attach them to shared values in a scrambled order.
	var ents []NodeID
	for i := 0; i < 40; i++ {
		ents = append(ents, g.MustAddEntity(fmt.Sprintf("e%d", i), "t")) //nolint
		if i%3 == 0 {
			g.AddValue(fmt.Sprintf("pad%d", i))
		}
	}
	v := g.AddValue("shared")
	perm := []int{17, 3, 39, 0, 24, 8, 31, 12, 5, 28, 1, 19, 36, 7, 22}
	for _, i := range perm {
		g.MustAddTriple(ents[i], "p", v)
	}
	pid, _ := g.PredByName("p")
	assertSorted := func() {
		ps := g.ValueSubjects(pid, v)
		for i := 1; i < len(ps); i++ {
			if ps[i-1] >= ps[i] {
				t.Fatalf("posting list not strictly sorted: %v", ps)
			}
		}
	}
	assertSorted()
	if got := len(g.ValueSubjects(pid, v)); got != len(perm) {
		t.Fatalf("posting list has %d subjects, want %d", got, len(perm))
	}
	// Remove a few from the middle and re-add; still sorted.
	for _, i := range []int{3, 24, 17} {
		if !removeTriple(t, g, ents[i], "p", v) {
			t.Fatalf("remove e%d failed", i)
		}
	}
	assertSorted()
	for _, i := range []int{24, 3} {
		g.MustAddTriple(ents[i], "p", v)
	}
	assertSorted()
}
