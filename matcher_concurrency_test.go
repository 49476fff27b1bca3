package graphkeys

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMatcherConcurrentApplyAndRead is the public-surface concurrency
// contract: goroutines calling Same/Result/LastStats while another
// goroutine streams deltas through Apply. Run under -race (the CI race
// job does) this exercises the Matcher's writer/reader lock, the only
// lock between the readers and the graph beneath.
func TestMatcherConcurrentApplyAndRead(t *testing.T) {
	g := NewGraph()
	const ents = 60
	for i := 0; i < ents; i++ {
		id := fmt.Sprintf("p%d", i)
		if err := g.AddEntity(id, "person"); err != nil {
			t.Fatal(err)
		}
		if err := g.AddValueTriple(id, "email", fmt.Sprintf("mail%d", i/2)); err != nil {
			t.Fatal(err)
		}
	}
	ks, err := ParseKeys(`key P for person {
		x -email-> e*
	}`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatcher(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Result().Matches) == 0 {
		t.Fatal("fixture identified nothing")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				a := fmt.Sprintf("p%d", (r+i)%ents)
				b := fmt.Sprintf("p%d", (r+i+1)%ents)
				_ = m.Same(a, b)
				if i%7 == 0 {
					res := m.Result()
					for _, pr := range res.Matches {
						if pr.A == pr.B {
							t.Error("reflexive pair reported")
							return
						}
					}
					_ = m.LastStats()
				}
			}
		}(r)
	}

	for round := 0; round < 40; round++ {
		i := round % ents
		id := fmt.Sprintf("p%d", i)
		d := NewDelta()
		d.RemoveValueTriple(id, "email", fmt.Sprintf("mail%d", i/2))
		d.AddValueTriple(id, "email", fmt.Sprintf("mail%d", (i/2+1)%ents))
		if _, _, err := m.Apply(d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round%10 == 9 {
			d := NewDelta().RemoveEntity(id)
			if _, _, err := m.Apply(d); err != nil {
				t.Fatal(err)
			}
			d2 := NewDelta().AddEntity(id, "person")
			d2.AddValueTriple(id, "email", fmt.Sprintf("mail%d", i/2))
			if _, _, err := m.Apply(d2); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestParallelChaseEngineMatchesChase pins the public dispatch: the
// ParallelChase engine returns the same Matches as every other engine.
func TestParallelChaseEngineMatchesChase(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("a%d", i)
		if err := g.AddEntity(id, "album"); err != nil {
			t.Fatal(err)
		}
		if err := g.AddValueTriple(id, "name_of", fmt.Sprintf("title%d", i%4)); err != nil {
			t.Fatal(err)
		}
		if err := g.AddValueTriple(id, "release_year", fmt.Sprintf("%d", 1990+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	ks, err := ParseKeys(`key Q for album {
		x -name_of-> n*
		x -release_year-> y*
	}`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Match(g, ks, Options{Engine: Chase})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 1, 2, 8} {
		got, err := Match(g, ks, Options{Engine: ParallelChase, Workers: p})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Matches) != fmt.Sprint(want.Matches) {
			t.Fatalf("Workers=%d: %v != %v", p, got.Matches, want.Matches)
		}
		if got.Engine != ParallelChase {
			t.Fatalf("result engine = %v", got.Engine)
		}
	}
	if ParallelChase.String() != "ParallelChase" {
		t.Fatalf("String() = %q", ParallelChase.String())
	}
}
