package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// buildStressGraph returns a graph with ents entities across two
// types, value attributes, and entity-entity edges.
func buildStressGraph(t testing.TB, ents int) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < ents; i++ {
		typ := "person"
		if i%2 == 1 {
			typ = "org"
		}
		n := g.MustAddEntity(fmt.Sprintf("e%d", i), typ)
		v := g.AddValue(fmt.Sprintf("val%d", i%7))
		g.MustAddTriple(n, "attr", v)
	}
	for i := 1; i < ents; i++ {
		s, _ := g.Entity(fmt.Sprintf("e%d", i))
		o, _ := g.Entity(fmt.Sprintf("e%d", i-1))
		g.MustAddTriple(s, "knows", o)
	}
	return g
}

// TestConcurrentReadersAndWriter is the shard-contract stress test:
// reader goroutines hammer every read accessor while one writer
// applies remove/re-add/remove-entity deltas. Run under -race (the CI
// race job does) this asserts the per-shard RWMutex discipline is
// sound; without -race it still checks that readers never observe a
// structurally broken graph (panics, impossible values).
func TestConcurrentReadersAndWriter(t *testing.T) {
	const ents = 200
	g := buildStressGraph(t, ents)
	pid, ok := g.PredByName("attr")
	if !ok {
		t.Fatal("attr predicate missing")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	readErr := make(chan string, 8)
	report := func(msg string) {
		select {
		case readErr <- msg:
		default:
		}
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for it := 0; !stop.Load(); it++ {
				n := NodeID((seed*31 + it) % g.NumNodes())
				// EntityType, not IsEntity-then-TypeOf: the writer may
				// tombstone n between two separate calls, and TypeOf
				// panics on tombstones.
				if typ, ok := g.EntityType(n); ok {
					if typ < 0 {
						report("negative TypeID")
					}
					for _, e := range g.Out(n) {
						if e.To < 0 || int(e.To) >= g.NumNodes() {
							report("out-edge to invalid node")
						}
					}
					_ = g.Degree(n)
					_ = g.Neighborhood(n, 2)
				}
				if g.IsValue(n) {
					for _, s := range g.ValueSubjects(pid, n) {
						if !g.IsEntity(s) && g.Label(s) == "" {
							report("posting subject with empty label")
						}
					}
				}
				_ = g.Label(n)
				_ = g.In(n)
				if tid, ok := g.TypeByName("person"); ok {
					ents := g.EntitiesOfType(tid)
					for _, e := range ents {
						_ = g.Label(e)
					}
				}
				_ = g.NumTriples()
				_ = g.NumEntities()
				g.EachValuePosting(func(p PredID, v NodeID, subjects []NodeID) {
					if len(subjects) == 0 {
						report("empty posting list handed out")
					}
				})
			}
		}(r)
	}

	// Writer: churn value triples, entity edges, and whole entities.
	for round := 0; round < 60; round++ {
		i := round % ents
		id := fmt.Sprintf("e%d", i)
		d := &Delta{}
		d.RemoveValueTriple(id, "attr", fmt.Sprintf("val%d", i%7))
		d.AddValueTriple(id, "attr", fmt.Sprintf("val%d", (i+1)%7))
		if _, err := g.ApplyDelta(d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round%10 == 9 {
			// Remove an entity entirely, then re-add it fresh.
			victim := fmt.Sprintf("e%d", (i+5)%ents)
			typ := "person"
			if (i+5)%2 == 1 {
				typ = "org"
			}
			rm := (&Delta{}).RemoveEntity(victim)
			if _, err := g.ApplyDelta(rm); err != nil {
				t.Fatalf("remove entity: %v", err)
			}
			readd := (&Delta{}).AddEntity(victim, typ)
			readd.AddValueTriple(victim, "attr", "valX")
			if _, err := g.ApplyDelta(readd); err != nil {
				t.Fatalf("re-add entity: %v", err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-readErr:
		t.Fatalf("reader observed: %s", msg)
	default:
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

// TestShardLayoutBijection pins the shard addressing: every dense ID
// maps to a unique (shard, local) slot and back.
func TestShardLayoutBijection(t *testing.T) {
	seen := make(map[[2]int]NodeID)
	for n := NodeID(0); n < 5000; n++ {
		key := [2]int{shardIndex(n), localIndex(n)}
		if prev, dup := seen[key]; dup {
			t.Fatalf("nodes %d and %d share slot %v", prev, n, key)
		}
		seen[key] = n
		if got := NodeID(localIndex(n)<<shardBits | shardIndex(n)); got != n {
			t.Fatalf("slot of %d maps back to %d", n, got)
		}
	}
}
